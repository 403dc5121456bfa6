package core

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// enumVoc has a named constant so the generated queries can mention one.
func enumVoc() *rel.Vocabulary {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	if err := voc.AddConst("c"); err != nil {
		panic(err)
	}
	return voc
}

// Denominator families for the differential test. wordDens keep every
// scaled weight in a machine word; primeDens are pairwise coprime, so
// their least common multiple — and any product of six of them times a
// tuple count — overflows 64 bits and forces the big-integer paths.
var (
	wordDens  = []int64{2, 4, 5, 10}
	primeDens = []int64{3, 7, 11, 1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121, 1000133}
)

// enumUDB draws a database over enumVoc with exactly u uncertain atoms
// and `sure` atoms at mu = 1 (u+sure at most n²+n), error probabilities
// num/den with den drawn from dens.
func enumUDB(rng *rand.Rand, n, u, sure int, dens []int64) *unreliable.DB {
	s := rel.MustStructure(n, enumVoc())
	if err := s.SetConst("c", rng.Intn(n)); err != nil {
		panic(err)
	}
	var atoms []rel.GroundAtom
	for x := 0; x < n; x++ {
		atoms = append(atoms, rel.GroundAtom{Rel: "S", Args: rel.Tuple{x}})
		if rng.Intn(2) == 0 {
			s.MustAdd("S", x)
		}
		for y := 0; y < n; y++ {
			atoms = append(atoms, rel.GroundAtom{Rel: "E", Args: rel.Tuple{x, y}})
			if rng.Intn(3) == 0 {
				s.MustAdd("E", x, y)
			}
		}
	}
	rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	d := unreliable.New(s)
	for i, a := range atoms[:u+sure] {
		if i >= u {
			d.MustSetError(a, big.NewRat(1, 1))
			continue
		}
		den := dens[rng.Intn(len(dens))]
		d.MustSetError(a, big.NewRat(1+rng.Int63n(den-1), den))
	}
	return d
}

var (
	// enumQFree: repeated variables (slots that collapse onto one atom
	// when x = y), equality, the constant, a literal element, -> and <->.
	enumQFree = []string{
		"S(c)",
		"E(c,0) <-> S(0)",
		"S(x) & !E(x,x)",
		"E(x,x) -> S(c)",
		"E(x,y) & S(y) & !S(x)",
		"(E(x,y) <-> E(y,x)) | x = y",
		"x = c | (S(x) -> E(x,y))",
		"(E(x,y) | E(y,x)) & (S(x) <-> S(y)) & !E(x,x)",
	}
	enumFO = []string{
		"exists x . S(x) & E(x,c)",
		"forall x . exists y . E(x,y) | x = y",
		"exists y . E(x,y) & S(y)",
		"forall z . E(x,z) -> S(y)",
		"existsrel C/1 . forall x . (C(x) <-> S(x)) & exists y . C(y)",
	}
)

// TestEnumKernelMatchesInterpreter is the differential property test of
// the compiled exact engines: on random instances QuantifierFree and
// WorldEnum must return, string for string, the H and R of the
// interpreter loops they replaced, and WorldEnum the same string for
// every worker count.
func TestEnumKernelMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	interp := Options{Eval: EvalInterpreted}
	same := func(label string, got, want Result) {
		t.Helper()
		if got.H.String() != want.H.String() || got.R.String() != want.R.String() {
			t.Fatalf("%s: compiled H=%s R=%s, interpreted H=%s R=%s", label, got.H, got.R, want.H, want.R)
		}
	}
	for _, u := range []int{0, 1, 5, 6, 7, 12} {
		for _, dens := range [][]int64{wordDens, primeDens} {
			d := enumUDB(rng, 4, u, rng.Intn(3), dens)
			label := fmt.Sprintf("u=%d dens=%v", u, dens[:2])
			for _, src := range enumQFree {
				f := logic.MustParse(src, d.A.Voc)
				want, err := QuantifierFree(bg, d, f, interp)
				if err != nil {
					t.Fatalf("%s %q interpreted: %v", label, src, err)
				}
				got, err := QuantifierFree(bg, d, f, Options{})
				if err != nil {
					t.Fatalf("%s %q: %v", label, src, err)
				}
				if len(got.FallbackTrail) != 0 {
					t.Fatalf("%s %q: compiled qfree fell back: %v", label, src, got.FallbackTrail)
				}
				same(label+" qfree "+src, got, want)
			}
			for _, src := range append(append([]string{}, enumQFree...), enumFO...) {
				f := logic.MustParse(src, d.A.Voc)
				if u == 12 && !logic.Compilable(f) {
					continue // 4096 interpreted second-order worlds per worker count buy nothing
				}
				want, err := WorldEnum(bg, d, f, interp)
				if err != nil {
					t.Fatalf("%s %q interpreted: %v", label, src, err)
				}
				for _, workers := range []int{1, 2, 4, 7} {
					got, err := WorldEnum(bg, d, f, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s %q workers=%d: %v", label, src, workers, err)
					}
					if len(got.FallbackTrail) != 0 {
						t.Fatalf("%s %q: unexpected trail %v", label, src, got.FallbackTrail)
					}
					same(fmt.Sprintf("%s world-enum workers=%d %s", label, workers, src), got, want)
				}
			}
		}
	}
}

// TestEnumKernelManyAtomsPerTuple drives QuantifierFree past six
// distinct uncertain atoms in one tuple, where the per-tuple
// enumeration itself spans several blocks.
func TestEnumKernelManyAtomsPerTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := "(E(0,1) | E(1,2) | E(2,0) | S(0)) & (E(1,0) <-> (E(2,1) | E(0,2) | S(1))) & !(S(2) & E(x,x))"
	for _, dens := range [][]int64{wordDens, primeDens} {
		d := enumUDB(rng, 3, 12, 0, dens)
		f := logic.MustParse(src, d.A.Voc)
		want, err := QuantifierFree(bg, d, f, Options{Eval: EvalInterpreted})
		if err != nil {
			t.Fatal(err)
		}
		got, err := QuantifierFree(bg, d, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.H.String() != want.H.String() || got.R.String() != want.R.String() {
			t.Errorf("dens %v: compiled H=%s, interpreted H=%s", dens[:2], got.H, want.H)
		}
	}
}

// TestUniformReliabilityClosedForm checks the kernel against counting:
// with every mu = 1/2 all worlds weigh 2^-u, so H·2^u is the number of
// (world, tuple) pairs that disagree with the observed answer — a
// subinstance count with a closed form on these shapes, computed here
// with no engine involved (Amarilli–Kimelfeld's uniform reliability).
func TestUniformReliabilityClosedForm(t *testing.T) {
	half := big.NewRat(1, 2)
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	degrees := []int{3, 2, 4, 1, 2} // out-degrees: u = 12 edges
	n := len(degrees)
	s := rel.MustStructure(n, voc)
	d := unreliable.New(s)
	for x, deg := range degrees {
		for j := 1; j <= deg; j++ {
			y := (x + j) % n
			s.MustAdd("E", x, y)
			d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{x, y}}, half)
		}
	}
	// Every node keeps an out-edge with probability 1 − 2^-deg,
	// independently: the sentence survives in Π of those, and node x
	// leaves the unary answer with probability 2^-deg(x).
	allKeep, sumLost := big.NewRat(1, 1), new(big.Rat)
	for _, deg := range degrees {
		lost := big.NewRat(1, 1<<uint(deg))
		allKeep.Mul(allKeep, new(big.Rat).Sub(big.NewRat(1, 1), lost))
		sumLost.Add(sumLost, lost)
	}
	sentenceH := new(big.Rat).Sub(big.NewRat(1, 1), allKeep)
	for _, tc := range []struct {
		query string
		want  *big.Rat
	}{
		{"forall x . exists y . E(x,y)", sentenceH},
		{"exists y . E(x,y)", sumLost},
	} {
		f := logic.MustParse(tc.query, voc)
		for _, workers := range []int{1, 3} {
			res, err := WorldEnum(bg, d, f, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.H.Cmp(tc.want) != 0 {
				t.Errorf("%q workers=%d: H = %s, closed form %s", tc.query, workers, res.H, tc.want)
			}
		}
	}
	// Quantifier-free: E(x,y) & S(y) with S fully observed and uncertain.
	// A tuple with both atoms present flips unless neither atom does
	// (3/4); an absent edge with a present label never becomes true.
	for x := 0; x < n; x++ {
		s.MustAdd("S", x)
		d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{x}}, half)
	}
	res, err := QuantifierFree(bg, d, logic.MustParse("E(x,y) & S(y)", voc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewRat(3*12, 4); res.H.Cmp(want) != 0 {
		t.Errorf("qfree: H = %s, closed form %s", res.H, want)
	}
	// Safe plan: the chain query holds in A and fails in B exactly when
	// every node loses its label (1/2) or all its out-edges (2^-deg) —
	// the complement of Amarilli–Kimelfeld's satisfying-subinstance count
	// over 2^17.
	noWitness := big.NewRat(1, 1)
	for _, deg := range degrees {
		witness := new(big.Rat).Sub(big.NewRat(1, 1), big.NewRat(1, 1<<uint(deg)))
		witness.Mul(witness, half) // keeps its label and an out-edge
		noWitness.Mul(noWitness, new(big.Rat).Sub(big.NewRat(1, 1), witness))
	}
	res, err = SafePlan(bg, d, logic.MustParse("exists x y . S(x) & E(x,y)", voc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(noWitness) != 0 {
		t.Errorf("safe-plan: H = %s, closed form %s", res.H, noWitness)
	}
}

// pollCountingCtx counts Err calls: the engines' only cancellation
// check.
type pollCountingCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCountingCtx) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestEnumKernelFaultSitesAndPolling pins the operational contract the
// compiled paths inherited from the loops they replaced: the engine and
// evaluation fault sites are still passed (the chaos campaign schedules
// faults on all four), a compile fault degrades to the interpreter with
// a trail instead of failing, and ctx is polled per 64-world block and
// per tuple.
func TestEnumKernelFaultSitesAndPolling(t *testing.T) {
	defer faultinject.Reset()
	defer faultinject.SetCounting(false)
	rng := rand.New(rand.NewSource(29))
	d := enumUDB(rng, 3, 9, 0, wordDens) // 8 blocks
	fo := logic.MustParse("exists y . E(x,y) & S(y)", d.A.Voc)
	qf := logic.MustParse("E(x,y) & S(y)", d.A.Voc)

	faultinject.SetCounting(true)
	faultinject.ResetCounters()
	if _, err := ReliabilityWith(bg, EngineWorldEnum, d, fo, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReliabilityWith(bg, EngineQFree, d, qf, Options{}); err != nil {
		t.Fatal(err)
	}
	counts := faultinject.Counters()
	for site, min := range map[string]int64{
		faultinject.SiteWorldEnum:   1,
		faultinject.SiteQFree:       1,
		faultinject.SiteAnswerSet:   8,
		faultinject.SiteWorldWorker: 8,
	} {
		if counts[site].Hits < min {
			t.Errorf("site %s hit %d times on the compiled path, want >= %d", site, counts[site].Hits, min)
		}
	}
	faultinject.SetCounting(false)

	injected := fmt.Errorf("block evaluation failed")
	faultinject.Enable(faultinject.SiteAnswerSet, faultinject.Fault{Err: injected})
	if _, err := WorldEnum(bg, d, fo, Options{}); err == nil {
		t.Error("armed eval/answer-set fault did not fail the compiled world enumeration")
	}
	faultinject.Reset()

	want, err := WorldEnum(bg, d, fo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.SiteVMCompile, faultinject.Fault{Err: fmt.Errorf("compiler down")})
	for name, run := range map[string]func() (Result, error){
		"world-enum": func() (Result, error) { return WorldEnum(bg, d, fo, Options{}) },
		"qfree":      func() (Result, error) { return QuantifierFree(bg, d, qf, Options{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s under a compile fault: %v", name, err)
		}
		if len(res.FallbackTrail) != 1 || res.FallbackTrail[0].Engine != "vm" {
			t.Errorf("%s under a compile fault: trail %v, want one vm step", name, res.FallbackTrail)
		}
		if name == "world-enum" && res.H.Cmp(want.H) != 0 {
			t.Errorf("interpreted fallback H = %s, compiled %s", res.H, want.H)
		}
	}
	faultinject.Reset()

	ctx := &pollCountingCtx{Context: bg}
	if _, err := WorldEnum(ctx, d, fo, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.polls.Load(); got < 8 {
		t.Errorf("world-enum polled ctx %d times over 8 blocks", got)
	}
	ctx = &pollCountingCtx{Context: bg}
	if _, err := QuantifierFree(ctx, d, qf, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ctx.polls.Load(); got < 9 {
		t.Errorf("qfree polled ctx %d times over 9 tuples", got)
	}
}

// TestQuantifierFreeAtomGuard: a tuple whose ground formula mentions
// more than maxTupleAtoms distinct atoms is refused with the same error
// in both evaluation modes.
func TestQuantifierFreeAtomGuard(t *testing.T) {
	d := enumUDB(rand.New(rand.NewSource(31)), 5, 3, 0, wordDens)
	var parts []string
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			parts = append(parts, fmt.Sprintf("E(%d,%d)", x, y))
		}
	}
	f := logic.MustParse(strings.Join(parts, " | "), d.A.Voc)
	_, want := QuantifierFree(bg, d, f, Options{Eval: EvalInterpreted})
	_, got := QuantifierFree(bg, d, f, Options{})
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("compiled error %v, interpreted error %v", got, want)
	}
	// One atom fewer is within the guard.
	f = logic.MustParse(strings.Join(parts[1:], " | "), d.A.Voc)
	if _, err := QuantifierFree(bg, d, f, Options{}); err != nil {
		t.Errorf("24 distinct atoms refused: %v", err)
	}
}

// TestWorldEnumRefusalStatesBudgetOnce: the refusal wraps
// unreliable.ErrEnumBudget and names the atom count and the budget once.
func TestWorldEnumRefusalStatesBudgetOnce(t *testing.T) {
	d := servedQFreeDB(rand.New(rand.NewSource(45)), 4)
	_, err := WorldEnum(bg, d, existQuery, Options{MaxEnumAtoms: 3})
	want := fmt.Sprintf("%v: %d uncertain atoms, budget 3", unreliable.ErrEnumBudget, d.NumUncertain())
	if err == nil || err.Error() != want {
		t.Errorf("refusal %v, want %q", err, want)
	}
}
