package unreliable

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qrel/internal/rel"
)

// testDB builds a small unreliable database over E/2, S/1 with the
// given universe size and a few random facts and error probabilities.
func testDB(rng *rand.Rand, n, uncertain int) *DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.MustAdd("E", rng.Intn(n), rng.Intn(n))
		}
		if rng.Intn(2) == 0 {
			s.MustAdd("S", rng.Intn(n))
		}
	}
	d := New(s)
	for len(d.UncertainAtoms()) < uncertain {
		var atom rel.GroundAtom
		if rng.Intn(2) == 0 {
			atom = rel.GroundAtom{Rel: "E", Args: rel.Tuple{rng.Intn(n), rng.Intn(n)}}
		} else {
			atom = rel.GroundAtom{Rel: "S", Args: rel.Tuple{rng.Intn(n)}}
		}
		d.MustSetError(atom, big.NewRat(int64(1+rng.Intn(9)), 10))
	}
	return d
}

func atomE(i, j int) rel.GroundAtom { return rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, j}} }
func atomS(i int) rel.GroundAtom    { return rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}} }

func TestSetErrorValidation(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	d := New(rel.MustStructure(3, voc))
	if err := d.SetError(rel.GroundAtom{Rel: "X", Args: rel.Tuple{0}}, big.NewRat(1, 2)); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := d.SetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0, 1}}, big.NewRat(1, 2)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := d.SetError(atomS(9), big.NewRat(1, 2)); err == nil {
		t.Error("out-of-universe atom accepted")
	}
	if err := d.SetError(atomS(0), big.NewRat(3, 2)); err == nil {
		t.Error("probability > 1 accepted")
	}
	if err := d.SetError(atomS(0), big.NewRat(-1, 2)); err == nil {
		t.Error("negative probability accepted")
	}
	if err := d.SetError(atomS(0), nil); err == nil {
		t.Error("nil probability accepted")
	}
	// Setting zero removes.
	d.MustSetError(atomS(0), big.NewRat(1, 2))
	if d.NumUncertain() != 1 {
		t.Fatal("uncertain count wrong")
	}
	d.MustSetError(atomS(0), new(big.Rat))
	if d.NumUncertain() != 0 {
		t.Error("zero probability did not remove atom")
	}
}

func TestNuAtom(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 0)
	d := New(s)
	d.MustSetError(atomS(0), big.NewRat(1, 10))
	d.MustSetError(atomS(1), big.NewRat(1, 4))
	// Present atom: nu = 1 - mu.
	if got := d.NuAtom(atomS(0)); got.Cmp(big.NewRat(9, 10)) != 0 {
		t.Errorf("nu(S0) = %v, want 9/10", got)
	}
	// Absent atom: nu = mu.
	if got := d.NuAtom(atomS(1)); got.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("nu(S1) = %v, want 1/4", got)
	}
	// Unmentioned absent atom: nu = 0.
	if got := d.NuAtom(atomS(2)); got.Sign() != 0 {
		t.Errorf("nu(S2) = %v, want 0", got)
	}
}

func TestWorldEnumerationSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		d := testDB(rng, 3, 1+rng.Intn(6))
		if err := d.ValidateWorldProbabilities(10); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestWorldProbMatchesNuWorld(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := testDB(rng, 3, 4)
	err := d.ForEachWorld(10, func(b *rel.Structure, nu *big.Rat) bool {
		direct, err := d.NuWorld(b)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cmp(nu) != 0 {
			t.Fatalf("NuWorld %v != enumeration prob %v", direct, nu)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNuWorldZeroCases(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	d := New(s)
	d.MustSetError(atomS(1), big.NewRat(1, 2))
	// World differing on the certain atom S(0) has probability zero.
	b := s.Clone()
	b.Rel("S").Toggle(rel.Tuple{0})
	nu, err := d.NuWorld(b)
	if err != nil {
		t.Fatal(err)
	}
	if nu.Sign() != 0 {
		t.Errorf("nu of impossible world = %v, want 0", nu)
	}
	// Mismatched universe errors.
	if _, err := d.NuWorld(rel.MustStructure(3, voc)); err == nil {
		t.Error("universe mismatch accepted")
	}
}

func TestSureFlips(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	d := New(s)
	d.MustSetError(atomS(0), big.NewRat(1, 1)) // certainly wrong
	if d.NumUncertain() != 0 || len(d.SureFlips()) != 1 {
		t.Fatal("mu=1 atom not classified as sure flip")
	}
	w := d.World(0)
	if w.Holds("S", rel.Tuple{0}) {
		t.Error("sure flip not applied in world")
	}
	// Exactly one possible world.
	if d.WorldCount().Int64() != 1 {
		t.Errorf("WorldCount = %v, want 1", d.WorldCount())
	}
	// Sampling also applies it.
	b := d.SampleWorld(rand.New(rand.NewSource(1)))
	if b.Holds("S", rel.Tuple{0}) {
		t.Error("sure flip not applied in sample")
	}
}

func TestEnumerationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := testDB(rng, 4, 8)
	err := d.ForEachWorld(4, func(*rel.Structure, *big.Rat) bool { return true })
	if !errors.Is(err, ErrEnumBudget) {
		t.Fatalf("budget not enforced: %v", err)
	}
	if want := fmt.Sprintf("%v: %d uncertain atoms, budget 4", ErrEnumBudget, d.NumUncertain()); err.Error() != want {
		t.Errorf("refusal %q, want %q", err, want)
	}
}

func TestGClearsAllWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 15; iter++ {
		d := testDB(rng, 3, 1+rng.Intn(5))
		g := d.G()
		err := d.ForEachWorld(10, func(_ *rel.Structure, nu *big.Rat) bool {
			x := new(big.Rat).Mul(nu, new(big.Rat).SetInt(g))
			if !x.IsInt() {
				t.Fatalf("iter %d: nu*g = %v not integral (g=%v)", iter, x, g)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGPaperLCMErratum(t *testing.T) {
	// Two atoms with probability 1/2: the paper's gcd-loop gives g = 2,
	// but nu(B) = 1/4 so the defining property nu(B)·g ∈ ℕ fails.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	d := New(rel.MustStructure(2, voc))
	d.MustSetError(atomS(0), big.NewRat(1, 2))
	d.MustSetError(atomS(1), big.NewRat(1, 2))
	lcm := d.GPaperLCM()
	if lcm.Int64() != 2 {
		t.Fatalf("paper's algorithm returned %v, expected lcm 2", lcm)
	}
	nu := d.WorldProb(0) // 1/4
	x := new(big.Rat).Mul(nu, new(big.Rat).SetInt(lcm))
	if x.IsInt() {
		t.Fatal("expected the paper's g to fail on this instance")
	}
	// The corrected g works.
	g := d.G()
	if g.Int64() != 4 {
		t.Fatalf("corrected g = %v, want 4", g)
	}
	y := new(big.Rat).Mul(nu, new(big.Rat).SetInt(g))
	if !y.IsInt() {
		t.Fatal("corrected g failed")
	}
}

func TestGPaperLCMAgreesOnCoprimeDenominators(t *testing.T) {
	// With a single uncertain atom (or coprime denominators and one
	// atom per world factor) lcm and product agree.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	d := New(rel.MustStructure(1, voc))
	d.MustSetError(atomS(0), big.NewRat(2, 7))
	if d.G().Cmp(d.GPaperLCM()) != 0 {
		t.Error("g variants disagree on single atom")
	}
}

func TestSampleWorldDistribution(t *testing.T) {
	// Single atom with mu = 1/4: flip frequency should be near 1/4.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(1, voc)
	s.MustAdd("S", 0)
	d := New(s)
	d.MustSetError(atomS(0), big.NewRat(1, 4))
	rng := rand.New(rand.NewSource(5))
	flips := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if !d.SampleWorld(rng).Holds("S", rel.Tuple{0}) {
			flips++
		}
	}
	freq := float64(flips) / trials
	if freq < 0.22 || freq > 0.28 {
		t.Errorf("flip frequency %.4f far from 0.25", freq)
	}
}

func TestWorldMaskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := testDB(rng, 3, 3)
	atoms := d.UncertainAtoms()
	for mask := uint64(0); mask < 8; mask++ {
		w := d.World(mask)
		for i, a := range atoms {
			flipped := mask&(1<<uint(i)) != 0
			if (w.Holds(a.Rel, a.Args) != d.A.Holds(a.Rel, a.Args)) != flipped {
				t.Fatalf("mask %d atom %v flip state wrong", mask, a)
			}
		}
	}
}

func TestIsPositiveOnly(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	d := New(s)
	d.MustSetError(atomS(0), big.NewRat(1, 2))
	if !d.IsPositiveOnly() {
		t.Error("errors on present facts only should be positive-only")
	}
	d.MustSetError(atomS(1), big.NewRat(1, 2))
	if d.IsPositiveOnly() {
		t.Error("error on absent atom should break positive-only")
	}
}

// TestCloneIndependence: a clone shares the original's μ values, which
// nothing mutates, so SetError on either side leaves the other's
// ErrorProb, Nu, Weights and WeightsOverLCM as they were.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := testDB(rng, 3, 4)
	view := func(x *DB) string {
		var b strings.Builder
		x.A.ForEachGroundAtom(func(a rel.GroundAtom) bool {
			fmt.Fprintf(&b, "%v: mu %s nu %s\n", a, x.ErrorProb(a).RatString(), x.Nu(a).RatString())
			return true
		})
		w := x.Weights()
		over, lcm := x.WeightsOverLCM()
		fmt.Fprintf(&b, "weights %v %v %v\nover %v: %v %v %v\n", w.Keep, w.Flip, w.Den, lcm, over.Keep, over.Flip, over.Den)
		return b.String()
	}
	before := view(d)
	c := d.Clone()
	if c.NumUncertain() != d.NumUncertain() || view(c) != before {
		t.Fatal("the clone differs from the original")
	}
	uncertain := d.UncertainAtoms()
	for _, a := range uncertain[1:] {
		c.MustSetError(a, big.NewRat(1, 3))
	}
	c.MustSetError(uncertain[0], new(big.Rat))
	c.MustSetError(atomS(0), big.NewRat(1, 1))
	if got := view(d); got != before {
		t.Errorf("SetError on the clone changed the original:\n%s\nwas\n%s", got, before)
	}
	cloned := view(c)
	if cloned == before {
		t.Fatal("SetError did not change the clone")
	}
	d.MustSetError(uncertain[1], big.NewRat(2, 7))
	if got := view(c); got != cloned {
		t.Errorf("SetError on the original changed the clone:\n%s\nwas\n%s", got, cloned)
	}
}

func TestFromProbabilitiesMarginals(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	nu := map[rel.AtomKey]*big.Rat{
		atomS(0).Key(): big.NewRat(3, 4),
		atomS(1).Key(): big.NewRat(1, 5),
		atomS(2).Key(): big.NewRat(1, 2),
	}
	d, err := fromProbabilities(4, voc, nu)
	if err != nil {
		t.Fatal(err)
	}
	// Observed database is the modal world.
	if !d.A.Holds("S", rel.Tuple{0}) || d.A.Holds("S", rel.Tuple{1}) || !d.A.Holds("S", rel.Tuple{2}) {
		t.Errorf("observed database wrong: %v", d.A)
	}
	// Marginals: Pr[atom holds] computed by enumeration equals nu.
	for k, want := range nu {
		atom := k.Atom()
		total := new(big.Rat)
		d.ForEachWorld(10, func(b *rel.Structure, p *big.Rat) bool {
			if b.Holds(atom.Rel, atom.Args) {
				total.Add(total, p)
			}
			return true
		})
		if total.Cmp(want) != 0 {
			t.Errorf("marginal of %v = %v, want %v", atom, total, want)
		}
	}
	// Round trip through Probabilities.
	back := d.Probabilities()
	for k, want := range nu {
		if got, ok := back[k]; !ok || got.Cmp(want) != 0 {
			t.Errorf("Probabilities()[%v] = %v, want %v", k.Atom(), got, want)
		}
	}
	// Validation of inputs.
	bad := map[rel.AtomKey]*big.Rat{atomS(0).Key(): big.NewRat(7, 4)}
	if _, err := fromProbabilities(4, voc, bad); err == nil {
		t.Error("out-of-range nu accepted")
	}
}

// SampleWorld is the cloning reference sampler: it draws a random world
// from Omega(D) into a fresh structure, one Float64 per uncertain atom
// in canonical order.
func (d *DB) SampleWorld(rng *rand.Rand) *rel.Structure {
	l := d.atoms()
	b := l.sureWorld(d.A)
	for _, e := range l.uncertain {
		if rng.Float64() < e.muF {
			b.Rel(e.atom.Rel).Toggle(e.atom.Args)
		}
	}
	return b
}

// TestSampleWorldIntoMatchesSampleWorld pins the zero-allocation
// sampler to the allocating one: identical RNG consumption, identical
// worlds, draw after draw.
func TestSampleWorldIntoMatchesSampleWorld(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(31)), 6, 10)
	ra := rand.New(rand.NewSource(77))
	rb := rand.New(rand.NewSource(77))
	buf := d.NewWorldBuf()
	for i := 0; i < 200; i++ {
		want := d.SampleWorld(ra)
		got := d.SampleWorldInto(rb, buf)
		if !want.Equal(got) {
			t.Fatalf("draw %d: buffered world differs from cloned world", i)
		}
	}
	// The streams stayed in lockstep.
	if ra.Uint64() != rb.Uint64() {
		t.Fatal("samplers consumed different amounts of randomness")
	}
}

// TestSampleWorldIntoAllocFree requires the steady-state draw to be
// allocation-free — the whole point of the buffer.
func TestSampleWorldIntoAllocFree(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(32)), 6, 10)
	rng := rand.New(rand.NewSource(78))
	buf := d.NewWorldBuf()
	d.SampleWorldInto(rng, buf) // warm up lazy state
	allocs := testing.AllocsPerRun(100, func() {
		d.SampleWorldInto(rng, buf)
	})
	if allocs > 0 {
		t.Errorf("SampleWorldInto allocates %v objects per draw, want 0", allocs)
	}
}

// TestForEachWorldMatchesWorldProb pins the reference enumerator to the
// definition: the nu handed to fn is WorldProb(mask), digit for digit,
// stays valid after the enumeration moved on, and comes with World(mask).
func TestForEachWorldMatchesWorldProb(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, u := range []int{0, 1, 5, 8} {
		d := testDB(rng, 4, u)
		// Coprime denominators on top of the tenths testDB draws.
		for i, a := range d.UncertainAtoms() {
			if i%2 == 0 {
				d.MustSetError(a, big.NewRat(int64(1+i), int64(7+6*i)))
			}
		}
		var nus []*big.Rat
		var worlds []*rel.Structure
		if err := d.ForEachWorld(u, func(b *rel.Structure, nu *big.Rat) bool {
			worlds, nus = append(worlds, b), append(nus, nu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(nus) != 1<<uint(u) {
			t.Fatalf("u=%d: visited %d worlds", u, len(nus))
		}
		for mask, nu := range nus {
			if want := d.WorldProb(uint64(mask)); nu.String() != want.String() {
				t.Errorf("u=%d world %b: nu = %s, WorldProb = %s", u, mask, nu, want)
			}
			if !worlds[mask].Equal(d.World(uint64(mask))) {
				t.Errorf("u=%d world %b: structure differs from World(mask)", u, mask)
			}
		}
	}
}

// TestWalkFromAnyMask: a cursor started mid-range produces, over g, the
// same probabilities as one that walked there.
func TestWalkFromAnyMask(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(42)), 4, 7)
	w := d.Weights()
	g := w.G()
	if g.Cmp(d.G()) != 0 {
		t.Fatalf("Weights.G = %s, DB.G = %s", g, d.G())
	}
	for _, start := range []uint64{0, 1, 37, 127} {
		walk := w.Walk(start)
		for mask := start; mask < 128; mask++ {
			got := new(big.Rat).SetFrac(walk.Weight(), g)
			if want := d.WorldProb(mask); got.Cmp(want) != 0 {
				t.Fatalf("walk from %d at %d: %s, want %s", start, mask, got, want)
			}
			walk.Next()
		}
	}
	// The rescaled weights describe the same distribution.
	scaled, lcm := d.WeightsOverLCM()
	for i := 0; i < w.Len(); i++ {
		keep := new(big.Rat).SetFrac(scaled.Keep[i], lcm)
		flip := new(big.Rat).SetFrac(scaled.Flip[i], lcm)
		if keep.Cmp(new(big.Rat).SetFrac(w.Keep[i], w.Den[i])) != 0 || flip.Cmp(new(big.Rat).SetFrac(w.Flip[i], w.Den[i])) != 0 {
			t.Errorf("atom %d: rescaled weights %s, %s differ from %s/%s, %s/%s", i, keep, flip, w.Keep[i], w.Den[i], w.Flip[i], w.Den[i])
		}
	}
}

// TestColdConcurrentReads: the first readers of a database may arrive
// together (lanes setting up, a server's workers); under -race they
// must all see one complete snapshot, again after a mutation.
func TestColdConcurrentReads(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(43)), 4, 9)
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				buf := d.NewWorldBuf()
				d.SampleWorldInto(rng, buf)
				if n := d.NumUncertain(); n != 9 || len(d.FlipThresholds()) != n || d.Weights().Len() != n {
					t.Errorf("round %d goroutine %d saw %d uncertain atoms", round, g, n)
				}
				if _, sure := d.FlipIndex(atomS(0)); sure {
					t.Errorf("round %d: S(0) reported as a sure flip", round)
				}
				for x := 0; x < 4; x++ {
					for _, a := range []rel.GroundAtom{atomS(x), atomE(x, g%4)} {
						if got, want := d.Nu(a), d.NuAtom(a); got.Cmp(want) != 0 {
							t.Errorf("round %d: Nu(%v) = %v, want %v", round, a, got, want)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		// Re-setting an uncertain atom keeps u at 9 and invalidates the snapshot.
		d.MustSetError(d.UncertainAtoms()[0], big.NewRat(1, 3))
	}
}

// TestNuMatchesNuAtom: the snapshot's shared nu equals NuAtom for
// uncertain, certain and mu = 1 atoms, observed or not, and a mutation
// is seen by the next read.
func TestNuMatchesNuAtom(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(45)), 3, 5)
	d.MustSetError(atomS(0), big.NewRat(1, 1))
	d.MustSetError(atomE(2, 2), big.NewRat(1, 1))
	check := func(when string) {
		for x := 0; x < 3; x++ {
			atoms := []rel.GroundAtom{atomS(x)}
			for y := 0; y < 3; y++ {
				atoms = append(atoms, atomE(x, y))
			}
			for _, a := range atoms {
				if got, want := d.Nu(a), d.NuAtom(a); got.Cmp(want) != 0 {
					t.Errorf("%s: Nu(%v) = %v, NuAtom %v", when, a, got, want)
				}
			}
		}
	}
	check("first snapshot")
	d.MustSetError(d.UncertainAtoms()[0], big.NewRat(2, 7))
	check("after SetError")
}

// TestNumUncertainTracksSetError: the count SetError maintains equals
// the length of the derived list through inserts, overwrites across the
// uncertain / sure / certain classes, and removals.
func TestNumUncertainTracksSetError(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	d := testDB(rng, 3, 0)
	values := []*big.Rat{new(big.Rat), big.NewRat(1, 1), big.NewRat(1, 3), big.NewRat(9, 10)}
	for step := 0; step < 200; step++ {
		d.MustSetError(atomE(rng.Intn(3), rng.Intn(3)), values[rng.Intn(len(values))])
		if got, want := d.NumUncertain(), len(d.UncertainAtoms()); got != want {
			t.Fatalf("step %d: NumUncertain = %d, %d uncertain atoms", step, got, want)
		}
		if c := d.Clone(); c.NumUncertain() != d.NumUncertain() {
			t.Fatalf("step %d: clone counts %d, original %d", step, c.NumUncertain(), d.NumUncertain())
		}
	}
}
