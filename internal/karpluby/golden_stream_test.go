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
// whose total does not, under the sequential stream and the lane
// split, with both kernels.
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

var goldenCounts = map[string]goldenCount{
	"small/seq":   {"2354176/691", 691, 418},
	"small/lanes": {"2416128/691", 691, 429},
	"wide/seq":    {"140490402865371945107456/173", 346, 272},
	"wide/lanes":  {"133775788022541668319232/173", 346, 259},
}

// goldenCountDNF runs CountDNF at the pinned accuracy and seed on the
// sequential stream (workers 0) or the lane split.
func goldenCountDNF(d prop.DNF, compiled bool, workers int) (CountResult, error) {
	const eps, delta, seed = 0.3, 0.2, 1998
	s := mc.Stream{Seed: seed, Workers: workers}
	if workers == 0 {
		s = mc.Stream{Src: mc.NewSource(seed)}
	}
	k := CountKernel(CountScalar)
	if compiled {
		k = CountBatched
	}
	return CountDNF(context.Background(), d, eps, delta, k, s)
}

func TestGoldenCountDNF(t *testing.T) {
	for name, d := range goldenDNFs {
		for _, w := range []int{0, 1, 3} {
			key := name + "/seq"
			if w > 0 {
				key = name + "/lanes"
			}
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
