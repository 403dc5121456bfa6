package bdd

import (
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/prop"
)

// BenchmarkBDDApply measures DNF compilation — the apply-heavy hot path
// of the exact lineage engine: every term chain is OR-ed into the root,
// exercising mk, the unique table, and the packed apply cache.
func BenchmarkBDDApply(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := randDNF(rng, 40, 120, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(d.NumVars, 0)
		if _, err := m.FromDNF(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBDDProb measures the bottom-up weighted count over a compiled
// lineage BDD — the slice-indexed memo path.
func BenchmarkBDDProb(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := randDNF(rng, 40, 120, 4)
	m := New(d.NumVars, 0)
	root, err := m.FromDNF(d)
	if err != nil {
		b.Fatal(err)
	}
	p := make(prop.ProbAssignment, d.NumVars)
	for i := range p {
		p[i] = new(big.Rat).SetFrac64(int64(1+rng.Intn(9)), 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Prob(root, p); err != nil {
			b.Fatal(err)
		}
	}
}

// lineageDNF is the Theorem 5.4 lineage of exists x y . E(x,y) & S(x) &
// S(y) over the given edges of an n-element universe: one term an edge,
// over all n² + n ground atoms as core indexes them, E(x,y) = x·n + y
// and S(x) = n² + x.
func lineageDNF(n int, edges [][2]int) prop.DNF {
	d := prop.DNF{NumVars: n*n + n}
	for _, e := range edges {
		d.Terms = append(d.Terms, prop.Term{prop.Pos(e[0]*n + e[1]), prop.Pos(n*n + e[0]), prop.Pos(n*n + e[1])})
	}
	return d
}

// hubLineage is the bench's exist-large shape: h mutually connected
// hubs, h² uncertain atoms, h·(h-1) terms.
func hubLineage(h int) prop.DNF {
	var edges [][2]int
	for x := 0; x < h; x++ {
		for y := 0; y < h; y++ {
			if x != y {
				edges = append(edges, [2]int{x, y})
			}
		}
	}
	return lineageDNF(h, edges)
}

// pathLineage is a path of m edges: pathwidth 2.
func pathLineage(m int) prop.DNF {
	var edges [][2]int
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return lineageDNF(m+1, edges)
}

// benchLineage measures what the exact lineage engine does per tuple: a
// fresh manager, FromDNF (order choice included) and one Prob.
func benchLineage(b *testing.B, d prop.DNF) {
	rng := rand.New(rand.NewSource(7))
	p := make(prop.ProbAssignment, d.NumVars)
	for i := range p {
		p[i] = new(big.Rat).SetFrac64(int64(1+rng.Intn(9)), int64(10+rng.Intn(30)))
	}
	var m *BDD
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = New(d.NumVars, 0)
		root, err := m.FromDNF(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Prob(root, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.NumNodes()), "nodes")
}

func BenchmarkLineageHub(b *testing.B)  { benchLineage(b, hubLineage(8)) }
func BenchmarkLineagePath(b *testing.B) { benchLineage(b, pathLineage(128)) }
