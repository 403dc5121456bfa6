package vm_test

import (
	"errors"
	"math/rand"
	"testing"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/prop"
	"qrel/internal/vm"
	"qrel/internal/workload"
)

// randProp draws a random propositional formula over numVars
// variables with the given remaining depth budget.
func randProp(rng *rand.Rand, numVars, depth int) prop.Formula {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return prop.FTrue{}
		case 1:
			return prop.FFalse{}
		default:
			return prop.FVar(rng.Intn(numVars))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return prop.FNot{F: randProp(rng, numVars, depth-1)}
	case 1:
		n := 1 + rng.Intn(3)
		out := make(prop.FAnd, n)
		for i := range out {
			out[i] = randProp(rng, numVars, depth-1)
		}
		return out
	default:
		n := 1 + rng.Intn(3)
		out := make(prop.FOr, n)
		for i := range out {
			out[i] = randProp(rng, numVars, depth-1)
		}
		return out
	}
}

// assignCols packs per-world variable assignments into the column
// layout EvalBatch consumes.
func assignCols(worlds [][]bool, numVars int) []uint64 {
	cols := make([]uint64, numVars)
	for s, a := range worlds {
		for v, b := range a {
			if b {
				cols[v] |= 1 << uint(s)
			}
		}
	}
	return cols
}

// worldBits packs one assignment into the scalar world-bitset layout.
func worldBits(a []bool) []uint64 {
	w := make([]uint64, (len(a)+63)/64)
	for v, b := range a {
		if b {
			w[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return w
}

func TestCompilePropMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const numVars = 11
	for trial := 0; trial < 500; trial++ {
		f := randProp(rng, numVars, 4)
		p, err := vm.CompileProp(f, numVars)
		if err != nil {
			t.Fatalf("compile %v: %v", f, err)
		}
		stack := p.NewStack()
		// A batch of m worlds, m varying over the full 1..64 range.
		m := 1 + rng.Intn(64)
		worlds := make([][]bool, m)
		for s := range worlds {
			a := make([]bool, numVars)
			for v := range a {
				a[v] = rng.Intn(2) == 0
			}
			worlds[s] = a
		}
		cols := assignCols(worlds, numVars)
		full := ^uint64(0) >> uint(64-m)
		got := p.EvalBatch(cols, full, stack)
		if got&^full != 0 {
			t.Fatalf("EvalBatch result %#x has bits outside full %#x for %v", got, full, f)
		}
		for s, a := range worlds {
			want := f.Eval(a)
			if ((got>>uint(s))&1 == 1) != want {
				t.Fatalf("EvalBatch world %d of %v: got %v, want %v", s, f, !want, want)
			}
			if sc := p.EvalWorld(worldBits(a), stack); sc != want {
				t.Fatalf("EvalWorld of %v on %v: got %v, want %v", f, a, sc, want)
			}
		}
	}
}

func TestCompilePropRejectsOutOfRangeVar(t *testing.T) {
	if _, err := vm.CompileProp(prop.FVar(3), 3); err == nil {
		t.Fatal("expected error compiling x3 over 3 variables")
	}
	if _, err := vm.CompileProp(prop.FNot{F: prop.FVar(7)}, 3); err == nil {
		t.Fatal("expected error compiling !x7 over 3 variables")
	}
}

func TestCompilePropSizeBudget(t *testing.T) {
	big := make(prop.FOr, 0, vm.MaxCode)
	for i := 0; i < vm.MaxCode; i++ {
		big = append(big, prop.FVar(0))
	}
	if _, err := vm.CompileProp(big, 1); !errors.Is(err, vm.ErrTooLarge) {
		t.Fatalf("expected vm.ErrTooLarge, got %v", err)
	}
}

// compileQueries is the formula mix the Compile-vs-interpreter tests
// walk: quantifier-free, conjunctive, nested quantifiers, equality,
// implication, and negation shapes.
var compileQueries = []string{
	"E(0,1)",
	"S(x) & !E(x,x)",
	"x = y | E(x,y)",
	"exists y . E(x,y) & S(y)",
	"forall x . exists y . E(x,y)",
	"exists x y . E(x,y) & E(y,x)",
	"forall x . S(x) -> exists y . E(x,y)",
	"!(S(0) <-> S(1))",
}

// envsFor enumerates a few environments binding the free variables of
// f to universe elements of an n-element structure.
func envsFor(f logic.Formula, n int) []logic.Env {
	fv := logic.FreeVars(f)
	if len(fv) == 0 {
		return []logic.Env{{}}
	}
	out := []logic.Env{}
	for e := 0; e < n; e++ {
		env := logic.Env{}
		for i, v := range fv {
			env[v] = (e + i) % n
		}
		out = append(out, env)
	}
	return out
}

func TestCompileMatchesLogicEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		db := workload.RandomUDB(rng, 3, 5)
		u := db.NumUncertain()
		if u > 60 {
			t.Fatalf("test db has %d uncertain atoms, want <= 60", u)
		}
		comp := vm.NewCompiler(db)
		for _, src := range compileQueries {
			f, err := logic.Parse(src, db.A.Voc)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			for _, env := range envsFor(f, db.A.N) {
				p, err := comp.Compile(f, env)
				if err != nil {
					t.Fatalf("compile %q: %v", src, err)
				}
				stack := p.NewStack()
				for mask := uint64(0); mask < 1<<uint(u) && mask < 128; mask++ {
					world := db.World(mask)
					want, err := logic.Eval(world, f, env)
					if err != nil {
						t.Fatalf("eval %q: %v", src, err)
					}
					bits := []uint64{mask}
					if got := p.EvalWorld(bits, stack); got != want {
						t.Fatalf("%q env %v world %b: compiled %v, interpreted %v", src, env, mask, got, want)
					}
					cols := make([]uint64, u)
					for v := 0; v < u; v++ {
						cols[v] = (mask >> uint(v)) & 1
					}
					if got := p.EvalBatch(cols, 1, stack) == 1; got != want {
						t.Fatalf("%q env %v world %b: batch %v, interpreted %v", src, env, mask, got, want)
					}
				}
			}
		}
	}
}

func TestCompileRejectsSecondOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := workload.RandomUDB(rng, 3, 2)
	f, err := logic.Parse("existsrel C/1 . forall x . C(x) | S(x)", db.A.Voc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := vm.Compile(db, f, nil); err == nil {
		t.Fatal("expected second-order formula to be rejected")
	}
}

func TestCompileFaultSiteForcesFallback(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(1))
	db := workload.RandomUDB(rng, 3, 2)
	f, err := logic.Parse("exists x . S(x)", db.A.Voc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	injected := errors.New("injected compile failure")
	faultinject.Enable(faultinject.SiteVMCompile, faultinject.Fault{Err: injected})
	if _, err := vm.Compile(db, f, nil); !errors.Is(err, injected) {
		t.Fatalf("expected injected error, got %v", err)
	}
	faultinject.Reset()
	if _, err := vm.Compile(db, f, nil); err != nil {
		t.Fatalf("compile after reset: %v", err)
	}
}

func TestFirstSatisfiedHits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const numVars = 8
	for trial := 0; trial < 300; trial++ {
		d := workload.RandomKDNF(rng, numVars, 1+rng.Intn(6), 1+rng.Intn(3))
		norm := make([]prop.Term, 0, len(d.Terms))
		for _, tm := range d.Terms {
			nt, sat := tm.Normalize()
			if sat {
				norm = append(norm, nt)
			}
		}
		if len(norm) == 0 {
			continue
		}
		m := 1 + rng.Intn(64)
		worlds := make([][]bool, m)
		pickedIdx := make([]int, m)
		picked := make([]uint64, len(norm))
		for s := range worlds {
			a := make([]bool, numVars)
			for v := range a {
				a[v] = rng.Intn(2) == 0
			}
			i := rng.Intn(len(norm))
			for _, l := range norm[i] {
				a[l.Var] = !l.Neg
			}
			worlds[s] = a
			pickedIdx[s] = i
			picked[i] |= 1 << uint(s)
		}
		cols := assignCols(worlds, numVars)
		full := ^uint64(0) >> uint(64-m)
		hits := vm.FirstSatisfiedHits(norm, cols, picked, full)
		for s, a := range worlds {
			first := -1
			for i, tm := range norm {
				if tm.Eval(a) {
					first = i
					break
				}
			}
			want := first == pickedIdx[s]
			if got := (hits>>uint(s))&1 == 1; got != want {
				t.Fatalf("world %d: bit-parallel hit %v, scalar %v (first=%d picked=%d)", s, got, want, first, pickedIdx[s])
			}
		}
	}
}
