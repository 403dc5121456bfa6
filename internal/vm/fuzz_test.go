package vm_test

import (
	"math/rand"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/vm"
	"qrel/internal/workload"
)

// FuzzCompiledEval differentially tests the compiler against the tree
// interpreter: for a random query over a random unreliable database
// and a random world, the compiled program — evaluated both through
// the scalar path and through a 64-world batch carrying the world in
// every lane — must agree with logic.Eval on the materialized world.
// In enumeration mode it then lays all 2^u worlds out the way the exact
// engines do — the low six flip bits index the lanes of a block, the
// rest are broadcast per block — and every lane of every block must
// agree with the interpreter on that lane's world.
func FuzzCompiledEval(f *testing.F) {
	f.Add(int64(1), "exists y . E(x,y) & S(y)", uint64(5))
	f.Add(int64(2), "forall x . exists y . E(x,y)", uint64(0))
	f.Add(int64(3), "S(x) & !E(x,x)", uint64(63))
	f.Add(int64(4), "x = y | E(x,y)", uint64(2))
	f.Add(int64(5), "forall x . S(x) -> exists y . E(x,y)", uint64(17))
	f.Add(int64(6), "!(S(0) <-> S(1))", uint64(40))
	f.Fuzz(func(t *testing.T, seed int64, src string, mask uint64) {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomUDB(rng, 3, 6+rng.Intn(3))
		q, err := logic.Parse(src, db.A.Voc)
		if err != nil {
			return
		}
		if atomCount(q) > 32 {
			return // keep grounding and the eval oracle cheap
		}
		env := logic.Env{}
		for _, v := range logic.FreeVars(q) {
			env[v] = rng.Intn(db.A.N)
		}
		p, err := vm.Compile(db, q, env)
		if err != nil {
			return // non-compilable shapes fall back to the interpreter
		}
		u := db.NumUncertain()
		mask &= 1<<uint(u) - 1
		want, err := logic.Eval(db.World(mask), q, env)
		if err != nil {
			t.Fatalf("interpreter rejected %q after it compiled: %v", src, err)
		}
		stack := p.NewStack()
		if got := p.EvalWorld([]uint64{mask}, stack); got != want {
			t.Fatalf("%q world %b: scalar compiled %v, interpreted %v", src, mask, got, want)
		}
		// The same world in all 64 batch slots must agree in every bit.
		cols := make([]uint64, u)
		for v := 0; v < u; v++ {
			if mask>>uint(v)&1 == 1 {
				cols[v] = ^uint64(0)
			}
		}
		full := ^uint64(0)
		got := p.EvalBatch(cols, full, stack)
		if want && got != full || !want && got != 0 {
			t.Fatalf("%q world %b: batch compiled %#x, interpreted %v", src, mask, got, want)
		}
		// Enumeration mode: lane l of block b is the world b<<6 | l.
		for block := uint64(0); block < 1<<uint(u-6); block++ {
			for v := 0; v < u; v++ {
				cols[v] = 0
				for lane := uint64(0); lane < 64; lane++ {
					cols[v] |= (block<<6 | lane) >> uint(v) & 1 << lane
				}
			}
			got := p.EvalBatch(cols, full, stack)
			for lane := uint64(0); lane < 64; lane++ {
				world := block<<6 | lane
				want, err := logic.Eval(db.World(world), q, env)
				if err != nil {
					t.Fatalf("interpreter rejected %q on world %b: %v", src, world, err)
				}
				if got>>lane&1 == 1 != want {
					t.Fatalf("%q: enumerated world %b: compiled %v, interpreted %v", src, world, !want, want)
				}
			}
		}
	})
}

// atomCount is the number of atom occurrences in q, relational and
// equality, the size of the grounding the fuzz target is willing to pay.
func atomCount(q logic.Formula) int {
	switch g := q.(type) {
	case logic.Atom, logic.Eq:
		return 1
	case logic.Not:
		return atomCount(g.F)
	case logic.And:
		return atomCounts(g...)
	case logic.Or:
		return atomCounts(g...)
	case logic.Implies:
		return atomCounts(g.L, g.R)
	case logic.Iff:
		return atomCounts(g.L, g.R)
	case logic.Exists:
		return atomCount(g.Body)
	case logic.Forall:
		return atomCount(g.Body)
	case logic.SOQuant:
		return atomCount(g.Body)
	}
	return 0
}

func atomCounts(qs ...logic.Formula) int {
	n := 0
	for _, q := range qs {
		n += atomCount(q)
	}
	return n
}
