package mc

import (
	"math"
	"math/big"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// rareDB: three uncertain facts with small error probabilities.
func rareDB() *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 0)
	s.MustAdd("S", 1)
	s.MustAdd("S", 2)
	d := unreliable.New(s)
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 100))
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{1}}, big.NewRat(1, 50))
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{2}}, big.NewRat(1, 200))
	return d
}

// flipped counts how many S facts are missing in the world.
func flippedFrac(b *rel.Structure) (float64, error) {
	missing := 0
	for i := 0; i < 3; i++ {
		if !b.Holds("S", rel.Tuple{i}) {
			missing++
		}
	}
	return float64(missing) / 3, nil
}

func TestFlipEventProb(t *testing.T) {
	d := rareDB()
	// Z = 1 − (99/100)(49/50)(199/200).
	want := big.NewRat(1, 1)
	want.Sub(want, new(big.Rat).Mul(big.NewRat(99, 100),
		new(big.Rat).Mul(big.NewRat(49, 50), big.NewRat(199, 200))))
	if got := flipEventProb(d); got.Cmp(want) != 0 {
		t.Errorf("Z = %v, want %v", got, want)
	}
	// A mu = 1 atom forces Z = 1.
	d2 := rareDB()
	d2.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 1))
	if flipEventProb(d2).Cmp(big.NewRat(1, 1)) != 0 {
		t.Error("sure flip should force Z = 1")
	}
}

// condDB: four uncertain facts whose flip probabilities are not small,
// so the conditional law differs visibly from Omega(D).
func condDB() *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(4, voc)
	d := unreliable.New(s)
	for i, mu := range []*big.Rat{big.NewRat(1, 10), big.NewRat(1, 5), big.NewRat(1, 20), big.NewRat(1, 3)} {
		s.MustAdd("S", i)
		d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, mu)
	}
	return d
}

// TestConditionalSamplerDistribution holds the rare-event block draw to
// the exact conditional law Pr[B | ≥ 1 flip] = ν(B)/Z on a four-atom
// database: the law its thresholds define, computed in rationals, is
// within 2⁻⁶⁰ of it for every world, and the frequencies of 4 000
// blocks' worlds match it within five standard deviations. No world
// outside the event is ever drawn.
func TestConditionalSamplerDistribution(t *testing.T) {
	d := condDB()
	z := flipEventProb(d)
	w := d.Weights()
	u := w.Len()
	exact := make([]*big.Rat, 1<<u)
	walk := w.Walk(0)
	for mask := range exact {
		exact[mask] = new(big.Rat).SetFrac(walk.Weight(), w.G())
		exact[mask].Quo(exact[mask], z)
		walk.Next()
	}
	exact[0].SetInt64(0)

	law := newWorlds(d, true)
	two64 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 64))
	prob := func(t uint64) *big.Rat {
		return new(big.Rat).Quo(new(big.Rat).SetInt(new(big.Int).SetUint64(t)), two64)
	}
	slack := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	for mask := range exact {
		p := big.NewRat(1, 1)
		flipped := false
		for j := 0; j < u; j++ {
			var pj *big.Rat
			switch {
			case flipped:
				pj = prob(law.t[j])
			case j == u-1:
				pj = big.NewRat(1, 1)
			default:
				pj = prob(law.cond[j])
			}
			if mask>>j&1 == 0 {
				pj = new(big.Rat).Sub(big.NewRat(1, 1), pj)
			}
			p.Mul(p, pj)
			flipped = flipped || mask>>j&1 == 1
		}
		if diff := new(big.Rat).Sub(p, exact[mask]); new(big.Rat).Abs(diff).Cmp(slack) > 0 {
			t.Errorf("world %04b: block law %s, exact conditional %s", mask, p.FloatString(20), exact[mask].FloatString(20))
		}
	}

	const blocks = 4000
	counts := make([]int, 1<<u)
	src := newSource(1)
	cols := make([]uint64, u)
	for b := 0; b < blocks; b++ {
		law.block(src, cols, blockSize, 0, nil)
		for s := uint(0); s < blockSize; s++ {
			mask := 0
			for j, c := range cols {
				mask |= int(c>>s&1) << j
			}
			counts[mask]++
		}
	}
	if counts[0] != 0 {
		t.Errorf("%d samples fell outside the flip event", counts[0])
	}
	n := float64(blocks * blockSize)
	for mask, c := range counts {
		p, _ := exact[mask].Float64()
		if sd := math.Sqrt(n * p * (1 - p)); math.Abs(float64(c)-n*p) > 5*sd+1 {
			t.Errorf("world %04b: %d of %.0f samples, expected %.1f ± %.1f", mask, c, n, n*p, sd)
		}
	}
}

func TestEstimateMeanRareMatchesExact(t *testing.T) {
	d := rareDB()
	// Exact E[flippedFrac] = (1/100 + 1/50 + 1/200)/3 by linearity.
	exact := (1.0/100 + 1.0/50 + 1.0/200) / 3
	est, err := EstimateMeanRare(bg, d, MeanKernel(d, flippedFrac), 0.001, 0.02, 0, Stream{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-exact) > 0.001 {
		t.Errorf("rare-event estimate %v, exact %v", est.Value, exact)
	}
	// The saving: unconditional Hoeffding at eps = 0.001 needs ~2.3M
	// samples; the conditional estimator needs Z² of that (Z ≈ 0.035).
	plain, err := hoeffdingSampleSize(0.001, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples*100 > plain {
		t.Errorf("rare-event used %d samples, plain needs %d; expected ≥100x saving", est.Samples, plain)
	}
}

func TestEstimateMeanRareEdgeCases(t *testing.T) {
	// No uncertainty at all: statistic is identically zero.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	d := unreliable.New(s)
	est, err := EstimateMeanRare(bg, d, MeanKernel(d, func(*rel.Structure) (float64, error) { return 0, nil }), 0.01, 0.05, 0, Stream{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.Samples != 0 {
		t.Errorf("certain database: %+v", est)
	}
	// mu = 1 atom: falls back to the plain estimator (Z = 1).
	d2 := rareDB()
	d2.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 1))
	est2, err := EstimateMeanRare(bg, d2, MeanKernel(d2, flippedFrac), 0.05, 0.05, 0, Stream{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est2.Method != MeanMethod {
		t.Errorf("method %q, want plain fallback", est2.Method)
	}
	// Parameter validation.
	if _, err := EstimateMeanRare(bg, rareDB(), MeanKernel(rareDB(), flippedFrac), 0, 0.5, 0, Stream{Seed: 1}); err == nil {
		t.Error("bad eps accepted")
	}
}
