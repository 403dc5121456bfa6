package mc

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// spreadDB has one uncertain atom per flip probability, from one half
// (a single bit level) to one in a thousand and its complement.
func spreadDB(mus ...*big.Rat) *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	d := unreliable.New(rel.MustStructure(len(mus), voc))
	for i, mu := range mus {
		d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, mu)
	}
	return d
}

// within reports whether count successes of n trials are within five
// standard deviations (plus one) of probability p.
func within(count, n int, p float64) bool {
	return math.Abs(float64(count)-float64(n)*p) <= 5*math.Sqrt(float64(n)*p*(1-p))+1
}

// TestBlockDrawFrequencies draws 2 000 full blocks of Omega(D) with two
// padding coins and checks, each within five standard deviations: every
// atom's and coin's flip frequency; every pair of atoms in the same lane
// (independent across atoms); and each atom in neighbouring lanes and
// in lanes 32 apart (independent across lanes).
func TestBlockDrawFrequencies(t *testing.T) {
	mus := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3), big.NewRat(1, 10), big.NewRat(3, 4), big.NewRat(1, 1000), big.NewRat(999, 1000)}
	d := spreadDB(mus...)
	p := make([]float64, len(mus)+2)
	for i, mu := range mus {
		p[i], _ = mu.Float64()
	}
	const xi = 0.25
	p[len(mus)], p[len(mus)+1] = xi, xi

	law := newWorlds(d, false)
	src := newSource(5)
	cols := make([]uint64, len(mus))
	const blocks = 2000
	n := len(p)
	flips := make([]int, n)
	pairs := make([][]int, n)
	for i := range pairs {
		pairs[i] = make([]int, n)
	}
	near, far := make([]int, n), make([]int, n)
	for b := 0; b < blocks; b++ {
		var coins [2]uint64
		if live := law.block(src, cols, blockSize, coinThreshold(xi), coins[:]); live != ^uint64(0) {
			t.Fatalf("full block live mask %#x", live)
		}
		all := append(cols[:len(cols):len(cols)], coins[:]...)
		for i, c := range all {
			flips[i] += bits.OnesCount64(c)
			near[i] += bits.OnesCount64(c & (c >> 1))
			far[i] += bits.OnesCount64(c & (c >> 32) & 0xffffffff)
			for j := i + 1; j < n; j++ {
				pairs[i][j] += bits.OnesCount64(c & all[j])
			}
		}
	}
	lanes := blocks * blockSize
	for i := 0; i < n; i++ {
		if !within(flips[i], lanes, p[i]) {
			t.Errorf("column %d: %d flips in %d lanes, p = %v", i, flips[i], lanes, p[i])
		}
		if !within(near[i], blocks*(blockSize-1), p[i]*p[i]) {
			t.Errorf("column %d: %d neighbouring-lane double flips, p² = %v", i, near[i], p[i]*p[i])
		}
		if !within(far[i], blocks*32, p[i]*p[i]) {
			t.Errorf("column %d: %d double flips 32 lanes apart, p² = %v", i, far[i], p[i]*p[i])
		}
		for j := i + 1; j < n; j++ {
			if !within(pairs[i][j], lanes, p[i]*p[j]) {
				t.Errorf("columns %d, %d: %d joint flips in %d lanes, p·p' = %v", i, j, pairs[i][j], lanes, p[i]*p[j])
			}
		}
	}
}

// TestBlockDrawShortBlock: a short block sets no bit outside its live
// lanes (compiled programs require it) in any column, conditioned or
// not, and a short conditioned block still flips an atom in every live
// lane.
func TestBlockDrawShortBlock(t *testing.T) {
	d := spreadDB(big.NewRat(1, 2), big.NewRat(1, 100), big.NewRat(2, 3))
	src := newSource(9)
	cols := make([]uint64, 3)
	for m := 1; m < blockSize; m++ {
		for _, rare := range []bool{false, true} {
			var coins [2]uint64
			live := newWorlds(d, rare).block(src, cols, m, coinThreshold(0.5), coins[:])
			if live != BatchFull(m) {
				t.Fatalf("m=%d: live mask %#x", m, live)
			}
			hit := uint64(0)
			for i, c := range append(cols[:3:3], coins[:]...) {
				if c&^live != 0 {
					t.Fatalf("m=%d rare=%v: column %d has bits %#x outside the live lanes", m, rare, i, c&^live)
				}
				if i < 3 {
					hit |= c
				}
			}
			if rare && hit != live {
				t.Fatalf("m=%d: conditioned block left lanes %#x without a flip", m, live&^hit)
			}
		}
	}
}

// wordsBetween counts the generator words that lead from state from to
// state to.
func wordsBetween(t *testing.T, from, to RNGState) int {
	t.Helper()
	s := &Source{s: from}
	for n := 0; n < 1<<16; n++ {
		if s.State() == to {
			return n
		}
		s.Uint64()
	}
	t.Fatal("states more than 2^16 words apart")
	return 0
}

// fanDB has the shape of the sampling benchmark's instance: a 32-node
// cycle with chords five ahead, all 64 edges uncertain with error 1/20,
// 2/20 or 3/20.
func fanDB() *unreliable.DB {
	const n, step = 32, 5
	rng := rand.New(rand.NewSource(10))
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2})
	s := rel.MustStructure(n, voc)
	d := unreliable.New(s)
	for x := 0; x < n; x++ {
		for _, y := range []int{(x + 1) % n, (x + step) % n} {
			s.MustAdd("E", x, y)
			d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{x, y}}, big.NewRat(int64(1+rng.Intn(3)), 20))
		}
	}
	return d
}

// TestBlockDrawWordsPerSample pins the work of the block draw on the
// benchmark-shaped 64-atom database: generator words per sample over
// 200 full blocks, against the 64 (one Float64 per atom) of a scalar
// draw. The mean law spends about log₂64 + 1.3 ≈ 7.3 words per atom per
// 64-lane block, so 7.3 per sample over 64 atoms; the conditioned law
// about the same.
func TestBlockDrawWordsPerSample(t *testing.T) {
	d := fanDB()
	if d.NumUncertain() != 64 {
		t.Fatalf("fan database has %d uncertain atoms, want 64", d.NumUncertain())
	}
	for _, c := range []struct {
		rare bool
		want int // words over the 200 blocks, pinned
	}{{false, 94223}, {true, 94088}} {
		law := newWorlds(d, c.rare)
		src := newSource(1998)
		cols := make([]uint64, 64)
		words := 0
		const blocks = 200
		for b := 0; b < blocks; b++ {
			from := src.State()
			law.block(src, cols, blockSize, 0, nil)
			words += wordsBetween(t, from, src.State())
		}
		perSample := float64(words) / (blocks * blockSize)
		if perSample > 9 || words != c.want {
			t.Errorf("rare=%v: %d words over %d blocks, %.2f per sample (pinned %d, bound 9)", c.rare, words, blocks, perSample, c.want)
		}
	}
}

// TestEstimatorCoverage is an empirical (ε, δ) check of the block
// streams: 2 000 seeded runs each of EstimateMean and EstimateMeanRare
// on databases whose expectation is known exactly. Each run misses by
// more than ε with probability below δ, so the misses must stay within
// the budget δ·runs.
func TestEstimatorCoverage(t *testing.T) {
	const runs, delta = 2000, 0.1
	mean := manyAtomDB() // E[statS] = Σ(1 − μ_i)/8
	meanTruth := 0.0
	for i := 0; i < 8; i++ {
		meanTruth += (1 - float64(i+1)/10) / 8
	}
	rare := condDB() // E[flipped fraction] = Σ μ_i / 4
	rareTruth := (1.0/10 + 1.0/5 + 1.0/20 + 1.0/3) / 4
	flipped := func(b *rel.Structure) (float64, error) {
		n := 0
		for i := 0; i < 4; i++ {
			if !b.Holds("S", rel.Tuple{i}) {
				n++
			}
		}
		return float64(n) / 4, nil
	}
	for _, c := range []struct {
		name  string
		eps   float64
		truth float64
		run   func(eps float64, s Stream) (Estimate, error)
	}{
		{"mean", 0.1, meanTruth, func(eps float64, s Stream) (Estimate, error) {
			est, _, err := EstimateMean(bg, MeanKernel(mean, statS), eps, delta, 0, s)
			return est, err
		}},
		{"rare", 0.05, rareTruth, func(eps float64, s Stream) (Estimate, error) {
			return EstimateMeanRare(bg, rare, MeanKernel(rare, flipped), eps, delta, 0, s)
		}},
	} {
		misses := 0
		for r := 0; r < runs; r++ {
			est, err := c.run(c.eps, Stream{Seed: int64(r)})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.Value-c.truth) > c.eps {
				misses++
			}
		}
		if misses > int(delta*runs) {
			t.Errorf("%s: %d of %d runs missed by more than ε = %v, budget %d", c.name, misses, runs, c.eps, int(delta*runs))
		}
		t.Logf("%s: %d of %d runs outside ε", c.name, misses, runs)
	}
}
