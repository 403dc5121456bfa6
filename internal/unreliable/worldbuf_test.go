package unreliable

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/rel"
)

// blockCols draws blocks of random flip columns, one word per
// uncertain atom per block: the layout WorldBuf.Load reads.
func blockCols(seed int64, blocks, u int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]uint64, blocks)
	for b := range out {
		out[b] = make([]uint64, u)
		for i := range out[b] {
			out[b][i] = rng.Uint64()
		}
	}
	return out
}

// worldAnswers evaluates q on every world of every block through buf,
// and once on the observed structure, as one truth vector.
func worldAnswers(d *DB, q *logic.Prepared, buf *WorldBuf, blocks [][]uint64) ([]bool, error) {
	observed, err := q.Holds(d.A, nil)
	if err != nil {
		return nil, err
	}
	out := []bool{observed}
	for _, cols := range blocks {
		for s := uint(0); s < 64; s++ {
			v, err := q.Holds(buf.Load(cols, s), nil)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// TestWorldBufsShareDenseObserved: lanes share one observed structure,
// whose relations are dense, and each loads worlds into its own
// buffer. Under -race every lane must read the shared bitsets without a
// race — a dense relation fills nothing lazily on its read path — and
// answer exactly as one sequential buffer does.
func TestWorldBufsShareDenseObserved(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(44)), 6, 12)
	if d.A.Rel("E").Universe() != 6 || d.A.Rel("S").Universe() != 6 {
		t.Fatal("the observed relations are not dense")
	}
	q := logic.Prepare(logic.MustParse("exists x y . E(x,y) & S(y) & !E(y,x)", d.A.Voc))
	blocks := blockCols(45, 8, d.NumUncertain())
	want, err := worldAnswers(d, q, d.NewWorldBuf(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := worldAnswers(d, q, d.NewWorldBuf(), blocks)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("goroutine %d, answer %d: %v, sequential %v", g, i, got[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDenseWorldLoadAllocFree: loading a world into a buffer over dense
// relations flips bits in place.
func TestDenseWorldLoadAllocFree(t *testing.T) {
	d := testDB(rand.New(rand.NewSource(46)), 6, 12)
	buf := d.NewWorldBuf()
	cols := blockCols(47, 1, d.NumUncertain())[0]
	s := uint(0)
	if allocs := testing.AllocsPerRun(100, func() {
		buf.Load(cols, s%64)
		s++
	}); allocs > 0 {
		t.Errorf("WorldBuf.Load allocates %v objects per world, want 0", allocs)
	}
}

// TestWorldBufMatchesWorldOnSparse: a relation whose tuple space is past
// the dense cap keeps the hash set, and a buffer over it loads the same
// worlds as World(mask).
func TestWorldBufMatchesWorldOnSparse(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "Q", Arity: 4}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(50, voc) // 50^4 tuples: past the cap
	if a.Rel("Q").Universe() >= 0 || a.Rel("S").Universe() != 50 {
		t.Fatal("want Q sparse and S dense")
	}
	a.MustAdd("Q", 1, 2, 3, 4)
	a.MustAdd("S", 7)
	d := New(a)
	for _, atom := range []rel.GroundAtom{
		{Rel: "Q", Args: rel.Tuple{1, 2, 3, 4}}, {Rel: "Q", Args: rel.Tuple{49, 0, 0, 49}},
		{Rel: "S", Args: rel.Tuple{7}}, {Rel: "S", Args: rel.Tuple{49}},
	} {
		d.MustSetError(atom, big.NewRat(1, 2))
	}
	buf := d.NewWorldBuf()
	for mask := uint64(0); mask < 16; mask++ {
		cols := make([]uint64, 4)
		for i := range cols {
			cols[i] = mask >> uint(i) & 1 << 5 // world 5 of the block
		}
		if !buf.Load(cols, 5).Equal(d.World(mask)) {
			t.Fatalf("mask %04b: buffered world differs from World(mask)", mask)
		}
	}
}
