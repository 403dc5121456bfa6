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

func TestConditionalSamplerDistribution(t *testing.T) {
	// Compare conditional sample frequencies against exact conditional
	// world probabilities by enumeration.
	d := rareDB()
	z := flipEventProb(d)
	// Exact conditional distribution over worlds with ≥1 flip.
	type worldKey string
	exact := map[worldKey]float64{}
	d.ForEachWorld(10, func(b *rel.Structure, nu *big.Rat) bool {
		flips := 0
		for i := 0; i < 3; i++ {
			if !b.Holds("S", rel.Tuple{i}) {
				flips++
			}
		}
		if flips == 0 {
			return true
		}
		cond := new(big.Rat).Quo(nu, z)
		f, _ := cond.Float64()
		exact[worldKey(b.String())] = f
		return true
	})
	zf, _ := z.Float64()
	cs := &condSampler{mus: d.UncertainMuF(), zf: zf, buf: d.NewWorldBuf()}
	rng := NewRand(1)
	counts := map[worldKey]int{}
	const trials = 60000
	for i := 0; i < trials; i++ {
		counts[worldKey(cs.sample(rng).String())]++
	}
	for k, p := range exact {
		got := float64(counts[k]) / trials
		if math.Abs(got-p) > 0.01+p/5 {
			t.Errorf("world %s: frequency %.5f, exact %.5f", k, got, p)
		}
	}
	// No samples outside the event.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != trials {
		t.Errorf("%d of %d samples fell outside the flip event", trials-total, trials)
	}
}

func TestEstimateMeanRareMatchesExact(t *testing.T) {
	d := rareDB()
	// Exact E[flippedFrac] = (1/100 + 1/50 + 1/200)/3 by linearity.
	exact := (1.0/100 + 1.0/50 + 1.0/200) / 3
	est, err := EstimateMeanRare(bg, d, flippedFrac, 0.001, 0.02, 0, Stream{Src: NewSource(2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-exact) > 0.001 {
		t.Errorf("rare-event estimate %v, exact %v", est.Value, exact)
	}
	// The saving: unconditional Hoeffding at eps = 0.001 needs ~2.3M
	// samples; the conditional estimator needs Z² of that (Z ≈ 0.035).
	plain, err := HoeffdingSampleSize(0.001, 0.02)
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
	est, err := EstimateMeanRare(bg, d, func(*rel.Structure) (float64, error) { return 0, nil }, 0.01, 0.05, 0, Stream{Src: NewSource(1)})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.Samples != 0 {
		t.Errorf("certain database: %+v", est)
	}
	// mu = 1 atom: falls back to the plain estimator (Z = 1).
	d2 := rareDB()
	d2.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 1))
	est2, err := EstimateMeanRare(bg, d2, flippedFrac, 0.05, 0.05, 0, Stream{Src: NewSource(3)})
	if err != nil {
		t.Fatal(err)
	}
	if est2.Method != "hoeffding" {
		t.Errorf("method %q, want plain fallback", est2.Method)
	}
	// Parameter validation.
	if _, err := EstimateMeanRare(bg, rareDB(), flippedFrac, 0, 0.5, 0, Stream{Src: NewSource(1)}); err == nil {
		t.Error("bad eps accepted")
	}
}
