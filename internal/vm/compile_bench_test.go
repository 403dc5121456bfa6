package vm_test

import (
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/vm"
)

// BenchmarkCompileFan times one Compile of the first-order sampling
// instance: "forall x . exists y . E(x,y)" over n = 32 nodes, each with
// two observed out-edges (to x+1 and x+5) wrong with probability
// 1/20..3/20 — u = 64, and 1 024 grounded atoms whose world ids each
// read the flip index.
func BenchmarkCompileFan(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(45))
	s := rel.MustStructure(n, rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1}))
	db := unreliable.New(s)
	for x := 0; x < n; x++ {
		for _, y := range []int{(x + 1) % n, (x + 5) % n} {
			s.MustAdd("E", x, y)
			db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{x, y}}, big.NewRat(int64(1+rng.Intn(3)), 20))
		}
	}
	f := logic.MustParse("forall x . exists y . E(x,y)", s.Voc)
	db.FlipIndex(rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 1}}) // builds the snapshot's tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Compile(db, f, nil); err != nil {
			b.Fatal(err)
		}
	}
}
