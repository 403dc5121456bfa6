package mc

import (
	"context"
	"errors"
	"math"
	"math/big"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// bg is the no-deadline context shared by the non-cancellation tests.
var bg = context.Background()

// oneAtomDB is a database with a single uncertain fact S(0), mu = 1/4.
// Pr[B ⊨ S(0)] = 3/4.
func oneAtomDB() *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	d := unreliable.New(s)
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 4))
	return d
}

func predS0(b *rel.Structure) (bool, error) { return b.Holds("S", rel.Tuple{0}), nil }

// The interpreted estimators on the lane split of seed; nuRun is the
// mean of a predicate's indicator, i.e. plain Monte Carlo for
// nu(psi) = Pr[B ⊨ psi].
func meanRun(ctx context.Context, d *unreliable.DB, f func(*rel.Structure) (float64, error), eps, delta float64, maxSamples int, seed int64) (Estimate, error) {
	est, _, err := EstimateMean(ctx, MeanKernel(d, f), eps, delta, maxSamples, Stream{Seed: seed})
	return est, err
}

func nuRun(ctx context.Context, d *unreliable.DB, pred func(*rel.Structure) (bool, error), eps, delta float64, maxSamples int, seed int64) (Estimate, error) {
	return meanRun(ctx, d, func(b *rel.Structure) (float64, error) {
		v, err := pred(b)
		if err != nil || !v {
			return 0, err
		}
		return 1, nil
	}, eps, delta, maxSamples, seed)
}

func paddedRun(ctx context.Context, d *unreliable.DB, pred func(*rel.Structure) (bool, error), xi, eps, delta float64, maxSamples int, seed int64) (Estimate, error) {
	return EstimateNuPadded(ctx, PaddedPred(d, pred), xi, eps, delta, maxSamples, Stream{Seed: seed})
}

func TestHoeffdingSampleSize(t *testing.T) {
	n, err := hoeffdingSampleSize(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(math.Log(2/0.05) / (2 * 0.05 * 0.05)))
	if n != want {
		t.Errorf("hoeffdingSampleSize = %d, want %d", n, want)
	}
	for _, bad := range [][2]float64{{0, 0.1}, {0.1, 0}, {0.1, 1}} {
		if _, err := hoeffdingSampleSize(bad[0], bad[1]); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
	if _, err := hoeffdingSampleSize(1e-9, 0.5); err == nil {
		t.Error("absurd sample size accepted")
	}
}

func TestPaperSampleSize(t *testing.T) {
	n, err := PaperSampleSize(0.25, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(9 / (2 * 0.25 * 0.01) * math.Log(1/0.05)))
	if n != want {
		t.Errorf("PaperSampleSize = %d, want %d", n, want)
	}
	for _, bad := range [][3]float64{{0, 0.1, 0.1}, {0.5, 0.1, 0.1}, {0.25, 0, 0.1}, {0.25, 0.1, 1}} {
		if _, err := PaperSampleSize(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}

func TestEstimateNuConverges(t *testing.T) {
	d := oneAtomDB()
	const seed = 1
	est, err := nuRun(bg, d, predS0, 0.02, 0.01, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-0.75) > 0.02 {
		t.Errorf("estimate %v, want 0.75 ± 0.02", est.Value)
	}
	if est.Method != MeanMethod {
		t.Errorf("method %q", est.Method)
	}
	if est.Samples < 1000 {
		t.Errorf("suspiciously few samples: %d", est.Samples)
	}
}

func TestEstimateNuPaddedConverges(t *testing.T) {
	d := oneAtomDB()
	const seed = 2
	est, err := paddedRun(bg, d, predS0, 0.25, 0.05, 0.02, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-0.75) > 0.05 {
		t.Errorf("padded estimate %v, want 0.75 ± 0.05", est.Value)
	}
	// Default xi kicks in on 0.
	est2, err := paddedRun(bg, d, predS0, 0, 0.05, 0.02, 0, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est2.Value-0.75) > 0.05 {
		t.Errorf("default-xi estimate %v", est2.Value)
	}
}

func TestEstimateNuPaddedStructuralMatches(t *testing.T) {
	d := oneAtomDB()
	const seed = 3
	est, err := EstimateNuPaddedStructural(bg, d, predS0, 0.25, 0.05, 0.02, 0, Stream{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-0.75) > 0.05 {
		t.Errorf("structural padded estimate %v, want 0.75 ± 0.05", est.Value)
	}
}

func TestEstimateExtremeProbabilities(t *testing.T) {
	// Certain query: nu = 1; padded estimator must recover ≈ 1.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	d := unreliable.New(s) // no uncertainty at all
	const seed = 4
	est, err := paddedRun(bg, d, predS0, 0.25, 0.05, 0.02, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-1) > 0.05 {
		t.Errorf("certain-true estimate %v", est.Value)
	}
	est, err = paddedRun(bg, d, func(b *rel.Structure) (bool, error) {
		return b.Holds("S", rel.Tuple{1}), nil
	}, 0.25, 0.05, 0.02, 0, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value > 0.05 {
		t.Errorf("certain-false estimate %v", est.Value)
	}
}

func TestEstimateAnytimePartial(t *testing.T) {
	d := oneAtomDB()
	const seed = 6
	// eps=0.01 needs ~18k Hoeffding samples; a 200-sample budget forces a
	// partial result with an honestly widened interval.
	est, err := nuRun(bg, d, predS0, 0.01, 0.05, 200, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Partial {
		t.Fatal("200-sample run not marked Partial")
	}
	if est.Samples != 200 {
		t.Errorf("samples %d, want exactly the budget", est.Samples)
	}
	wantEps := math.Sqrt(math.Log(2/0.05) / (2 * 200))
	if math.Abs(est.Eps-wantEps) > 1e-12 {
		t.Errorf("widened eps %v, want Hoeffding eps at t'=200: %v", est.Eps, wantEps)
	}
	// The widened interval still brackets the truth generously.
	if math.Abs(est.Value-0.75) > est.Eps {
		t.Errorf("partial estimate %v ± %v misses 0.75", est.Value, est.Eps)
	}
}

func TestEstimateCanceledBeforeFirstSample(t *testing.T) {
	d := oneAtomDB()
	ctx, cancel := context.WithCancel(bg)
	cancel()
	const seed = 7
	if _, err := nuRun(ctx, d, predS0, 0.1, 0.1, 0, seed); !errors.Is(err, ErrNoSamples) {
		t.Errorf("EstimateNu error %v, want ErrNoSamples", err)
	}
	if _, err := paddedRun(ctx, d, predS0, 0.25, 0.1, 0.1, 0, seed); !errors.Is(err, ErrNoSamples) {
		t.Errorf("EstimateNuPadded error %v, want ErrNoSamples", err)
	}
}

func TestEstimateMeanValidation(t *testing.T) {
	d := oneAtomDB()
	const seed = 5
	if _, err := meanRun(bg, d, func(*rel.Structure) (float64, error) { return 2, nil }, 0.1, 0.1, 0, seed); err == nil {
		t.Error("out-of-range sample value accepted")
	}
	if _, err := meanRun(bg, d, func(*rel.Structure) (float64, error) {
		return 0, errTest
	}, 0.1, 0.1, 0, seed); err == nil {
		t.Error("predicate error swallowed")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestPadDB(t *testing.T) {
	d := oneAtomDB()
	xi := big.NewRat(1, 4)
	padded, rc, rd, err := padDB(d, xi)
	if err != nil {
		t.Fatal(err)
	}
	// Original facts survive.
	if !padded.A.Holds("S", rel.Tuple{0}) {
		t.Error("original fact lost")
	}
	// Pad relation empty, both atoms at xi.
	if padded.A.Rel(PadRel).Len() != 0 {
		t.Error("pad relation not empty")
	}
	if padded.ErrorProb(rc).Cmp(xi) != 0 || padded.ErrorProb(rd).Cmp(xi) != 0 {
		t.Error("pad error probabilities wrong")
	}
	// Constants distinct.
	if padded.A.Consts["c_pad"] == padded.A.Consts["d_pad"] {
		t.Error("pad constants equal")
	}
	// Original error preserved.
	if padded.ErrorProb(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}).Cmp(big.NewRat(1, 4)) != 0 {
		t.Error("original error probability lost")
	}
	// Exact marginal of the padded query via enumeration:
	// E[(S0 ∨ Rc) ∧ Rd] = ξ(ν + ξ(1−ν)) with ν = 3/4, ξ = 1/4:
	// p = 1/4 · (3/4 + 1/16) = 13/64.
	total := new(big.Rat)
	padded.ForEachWorld(10, func(b *rel.Structure, nu *big.Rat) bool {
		if (b.Holds("S", rel.Tuple{0}) || b.Holds(rc.Rel, rc.Args)) && b.Holds(rd.Rel, rd.Args) {
			total.Add(total, nu)
		}
		return true
	})
	if total.Cmp(big.NewRat(13, 64)) != 0 {
		t.Errorf("padded exact probability %v, want 13/64", total)
	}
	// Errors: universe too small; name collision.
	tiny := unreliable.New(rel.MustStructure(1, rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})))
	if _, _, _, err := padDB(tiny, xi); err == nil {
		t.Error("1-element universe accepted")
	}
	if _, _, _, err := padDB(padded, xi); err == nil {
		t.Error("double padding accepted")
	}
}

func TestPaddedCoverageBounds(t *testing.T) {
	// The padded expectation p must satisfy ξ² ≤ p ≤ ξ for any query; we
	// verify via enumeration on a database with nu spanning {0, 1/2, 1}.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 0)
	d := unreliable.New(s)
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{1}}, big.NewRat(1, 2))
	xi := big.NewRat(1, 4)
	padded, rc, rd, err := padDB(d, xi)
	if err != nil {
		t.Fatal(err)
	}
	for elem := 0; elem < 3; elem++ {
		p := new(big.Rat)
		padded.ForEachWorld(10, func(b *rel.Structure, nu *big.Rat) bool {
			if (b.Holds("S", rel.Tuple{elem}) || b.Holds(rc.Rel, rc.Args)) && b.Holds(rd.Rel, rd.Args) {
				p.Add(p, nu)
			}
			return true
		})
		xi2 := big.NewRat(1, 16)
		if p.Cmp(xi2) < 0 || p.Cmp(xi) > 0 {
			t.Errorf("element %d: padded p = %v outside [ξ², ξ]", elem, p)
		}
	}
}
