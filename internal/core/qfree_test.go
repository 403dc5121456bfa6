package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// servedQuery is the quantifier-free query qreld serves most often in
// the benchmark's request mixes.
const servedQuery = "E(x,y) & S(y) & !S(x)"

// servedQFreeDB is a dense random graph of the served shape: edge
// density 0.3 and label density 0.5, every fourth edge slot and every
// second label uncertain with error 1/10..4/10 (u = n²/4 + n/2).
func servedQFreeDB(rng *rand.Rand, n int) *unreliable.DB {
	s := rel.MustStructure(n, rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1}))
	d := unreliable.New(s)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				s.MustAdd("E", i, j)
			}
			if (i*n+j)%4 == 0 {
				d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, j}}, big.NewRat(int64(1+rng.Intn(4)), 10))
			}
		}
		if rng.Float64() < 0.5 {
			s.MustAdd("S", i)
		}
		if i%2 == 0 {
			d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, big.NewRat(int64(1+rng.Intn(4)), 10))
		}
	}
	return d
}

// shapeUDB draws a database over S/1, E/2, T/3 and a constant c with
// obs[r] observed tuples and unc[r] uncertain atoms in relation r —
// every other one drawn from the observed tuples, the rest anywhere,
// so many are absent from the observed structure — and sure atoms at
// mu = 1. The counts decide which relations, and which flip indexes,
// are dense.
func shapeUDB(rng *rand.Rand, n int, obs, unc map[string]int, sure int) *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1}, rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "T", Arity: 3})
	if err := voc.AddConst("c"); err != nil {
		panic(err)
	}
	s := rel.MustStructure(n, voc)
	if err := s.SetConst("c", rng.Intn(n)); err != nil {
		panic(err)
	}
	draw := func(arity int) rel.Tuple {
		t := make(rel.Tuple, arity)
		for i := range t {
			t[i] = rng.Intn(n)
		}
		return t
	}
	for _, sym := range voc.Rels {
		for i := 0; i < obs[sym.Name]; i++ {
			s.MustAdd(sym.Name, draw(sym.Arity)...)
		}
	}
	d := unreliable.New(s)
	for _, sym := range voc.Rels {
		held := s.Rel(sym.Name).Tuples()
		for i := 0; i < unc[sym.Name]; i++ {
			t := draw(sym.Arity)
			if i%2 == 0 && len(held) > 0 {
				t = held[rng.Intn(len(held))]
			}
			d.MustSetError(rel.GroundAtom{Rel: sym.Name, Args: t}, big.NewRat(int64(1+rng.Intn(9)), 10))
		}
	}
	for i := 0; i < sure; i++ {
		sym := voc.Rels[rng.Intn(len(voc.Rels))]
		d.MustSetError(rel.GroundAtom{Rel: sym.Name, Args: draw(sym.Arity)}, big.NewRat(1, 1))
	}
	return d
}

// TestQuantifierFreeIndexShapes extends the differential test of the
// compiled Proposition 3.1 engine past universe 4, where every
// relation and every flip index is dense: relations of arity 1–3 that
// stay sparse at n = 24 (fewer tuples than bitset words), flip indexes
// that are sparse over a dense relation and dense over a sparse one,
// mu = 1 atoms, uncertain atoms absent from the observed structure,
// constants, repeated variables and equality slots. The compiled H and
// R must equal the interpreter's string for string.
func TestQuantifierFreeIndexShapes(t *testing.T) {
	queries := []string{
		"S(x) & !S(c)",
		"E(x,x) -> S(x)",
		"E(x,y) & S(y) & !S(x)",
		"(E(x,y) <-> E(y,x)) | x = y",
		"T(x,y,x) | (E(c,y) & x = c)",
		"T(c,x,3) <-> !E(x,c)",
		"T(x,y,z) -> (E(x,y) | S(z))",
	}
	rng := rand.New(rand.NewSource(45))
	layouts := map[[2]bool]bool{} // (observed relation dense, flip index dense)
	for _, c := range []struct {
		n        int
		obs, unc map[string]int
		sure     int
	}{
		{n: 5, obs: map[string]int{"S": 2, "E": 8, "T": 20}, unc: map[string]int{"S": 3, "E": 6, "T": 10}, sure: 2},
		{n: 24, obs: map[string]int{"S": 5, "E": 4, "T": 10}, unc: map[string]int{"S": 4, "E": 3, "T": 5}, sure: 3},
		{n: 24, obs: map[string]int{"S": 12, "E": 120, "T": 300}, unc: map[string]int{"S": 6, "E": 40, "T": 250}},
		{n: 24, obs: map[string]int{"S": 3, "E": 200, "T": 5}, unc: map[string]int{"E": 4, "T": 500}, sure: 4},
	} {
		d := shapeUDB(rng, c.n, c.obs, c.unc, c.sure)
		for _, name := range []string{"E", "T"} {
			layouts[[2]bool{d.A.Rel(name).Universe() >= 0, d.RelFlips(name).Dense()}] = true
		}
		for _, src := range queries {
			label := fmt.Sprintf("n=%d obs=%v unc=%v %q", c.n, c.obs, c.unc, src)
			f := logic.MustParse(src, d.A.Voc)
			want, err := QuantifierFree(bg, d, f, Options{Eval: EvalInterpreted})
			if err != nil {
				t.Fatalf("%s interpreted: %v", label, err)
			}
			got, err := QuantifierFree(bg, d, f, Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got.FallbackTrail) != 0 {
				t.Fatalf("%s: compiled qfree fell back: %v", label, got.FallbackTrail)
			}
			if got.H.String() != want.H.String() || got.R.String() != want.R.String() {
				t.Fatalf("%s: compiled H=%s R=%s, interpreted H=%s R=%s", label, got.H, got.R, want.H, want.R)
			}
		}
	}
	if len(layouts) != 4 {
		t.Errorf("binary and ternary relations covered %d of the 4 (relation, flip index) layouts: %v", len(layouts), layouts)
	}
}

// TestQuantifierFreeAllocsFlatInTuples: the compiled Proposition 3.1
// engine allocates per request, never per tuple — the same count at
// n = 20 (400 tuples) as at n = 40 (1 600 tuples). A per-tuple atom
// key, lookup or grounding would show here as allocations growing with
// n^k.
func TestQuantifierFreeAllocsFlatInTuples(t *testing.T) {
	allocs := func(n int) float64 {
		d := servedQFreeDB(rand.New(rand.NewSource(45)), n)
		f := logic.MustParse(servedQuery, d.A.Voc)
		if _, err := QuantifierFree(bg, d, f, Options{}); err != nil { // builds the snapshot's tables
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := QuantifierFree(bg, d, f, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(20), allocs(40); small != large {
		t.Errorf("allocations per call: %v at n = 20, %v at n = 40; want equal", small, large)
	}
}

// BenchmarkQuantifierFree times the compiled Proposition 3.1 engine on
// the served shape at n = 40: 1 600 tuples, three slots, 420 uncertain
// atoms.
func BenchmarkQuantifierFree(b *testing.B) {
	d := servedQFreeDB(rand.New(rand.NewSource(45)), 40)
	f := logic.MustParse(servedQuery, d.A.Voc)
	if _, err := QuantifierFree(bg, d, f, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QuantifierFree(bg, d, f, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
