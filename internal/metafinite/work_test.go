package metafinite_test

import (
	"context"
	"math/rand"
	"testing"

	"qrel/internal/metafinite"
	"qrel/internal/workload"
)

// TestQuantifierFreeConstantAllocsPerTuple is Theorem 6.2 (i)'s shape as
// a counted gate: QuantifierFree does constant work per tuple, so its
// allocations per tuple on E9's term and database shape do not grow
// with n. A per-tuple copy of the database would double them from
// n = 64 to n = 128.
func TestQuantifierFreeConstantAllocsPerTuple(t *testing.T) {
	term := metafinite.Add{L: metafinite.FApp{Fn: "salary", Args: []metafinite.FOTerm{metafinite.V("x")}}, R: metafinite.NumInt(100)}
	perTuple := func(n int) float64 {
		u, err := workload.SalaryUDB(rand.New(rand.NewSource(int64(n))), n, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := metafinite.QuantifierFree(context.Background(), u, term, 0); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(n)
	}
	small, large := perTuple(64), perTuple(128)
	t.Logf("allocations per tuple: %.1f at n = 64, %.1f at n = 128", small, large)
	if large > 1.25*small {
		t.Errorf("allocations per tuple grow with n: %.1f at n = 64, %.1f at n = 128 (bound 1.25×)", small, large)
	}
}
