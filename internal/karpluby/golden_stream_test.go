package karpluby

import (
	"context"
	"testing"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

// Golden #DNF streams, recorded at commit a543416 (see
// internal/core/golden_stream_test.go for why literals): CountDNF on a
// DNF whose term-weight total fits the 63-bit batched pick and on one
// whose total does not, with both kernels, under every worker count.
var goldenDNFs = map[string]prop.DNF{
	"small": {NumVars: 12, Terms: []prop.Term{
		{prop.Pos(0), prop.Negd(3)},
		{prop.Pos(1), prop.Pos(2), prop.Negd(7)},
		{prop.Negd(0), prop.Pos(5)},
		{prop.Pos(4), prop.Pos(8), prop.Pos(11)},
		{prop.Negd(9)},
		{prop.Pos(6), prop.Negd(10), prop.Pos(3)},
	}},
	// 2^69 + 2^68 + 2^67 satisfying (term, assignment) pairs.
	"wide": {NumVars: 70, Terms: []prop.Term{
		{prop.Pos(0)},
		{prop.Negd(1), prop.Pos(2)},
		{prop.Pos(3), prop.Pos(4), prop.Pos(69)},
	}},
}

type goldenCount struct {
	estimate      string
	samples, hits int
}

// Re-pinned once, on purpose, when the sample size moved from Lemma
// 5.11's worst case to the coverage-bound planner (Planner): t fell from
// 691 and 346 to 216 and 154, the draw order is unchanged.
var goldenCounts = map[string]goldenCount{
	"small/lanes": {"33088/9", 216, 141},
	"wide/lanes":  {"811656739243220271104/1", 154, 121},
}

// goldenCountDNF runs CountDNF at the pinned accuracy and seed on the
// lane split, scheduled on workers goroutines.
func goldenCountDNF(d prop.DNF, compiled bool, workers int) (CountResult, error) {
	const eps, delta, seed = 0.3, 0.2, 1998
	s := mc.Stream{Seed: seed, Workers: workers}
	k := CountKernel(CountScalar)
	if compiled {
		k = CountBatched
	}
	return CountDNF(context.Background(), d, eps, delta, k, s)
}

func TestGoldenCountDNF(t *testing.T) {
	for name, d := range goldenDNFs {
		for _, w := range []int{0, 1, 3} {
			key := name + "/lanes"
			for _, compiled := range []bool{true, false} {
				res, err := goldenCountDNF(d, compiled, w)
				if err != nil {
					t.Fatalf("%s workers=%d compiled=%v: %v", key, w, compiled, err)
				}
				got := goldenCount{res.Estimate.String(), res.Samples, res.Hits}
				if want := goldenCounts[key]; got != want {
					t.Errorf("%s workers=%d compiled=%v: got %+v, pinned %+v", key, w, compiled, got, want)
				}
			}
		}
	}
}
