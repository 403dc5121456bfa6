// Package reductions implements the paper's two hardness constructions
// as executable code, together with the independent exact solvers
// needed to validate them:
//
//   - Proposition 3.2: the reduction from #MONOTONE-2SAT (Valiant) to
//     the expected error of a fixed conjunctive query, plus exact
//     monotone-2SAT counters (brute force and independent-set
//     branching);
//   - Lemma 5.9: the reduction from graph 4-colourability to the
//     complement of the absolute reliability problem of a fixed
//     existential query, plus a backtracking k-colouring solver.
package reductions

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N   int
	adj []map[int]struct{}
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	g := &Graph{N: n, adj: make([]map[int]struct{}, n)}
	for i := range g.adj {
		g.adj[i] = map[int]struct{}{}
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are allowed
// (they make the graph non-colourable for any k).
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		return fmt.Errorf("reductions: edge (%d,%d) outside vertex range [0,%d)", u, v, g.N)
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// Edges returns each undirected edge once (u ≤ v), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.N; u++ {
		for v := range g.adj[u] {
			if u <= v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Edges()) }

// Degree returns the degree of v (self-loops count once).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// RandomGraph returns a G(n, p) random graph drawn with rng.
func RandomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// KColoring searches for a proper k-colouring by backtracking over the
// vertices in descending-degree order. It returns the colouring (a
// colour per vertex) and true on success.
func (g *Graph) KColoring(k int) ([]int, bool) {
	if k < 0 {
		return nil, false
	}
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	colors := make([]int, g.N)
	for i := range colors {
		colors[i] = -1
	}
	var assign func(int) bool
	assign = func(pos int) bool {
		if pos == g.N {
			return true
		}
		v := order[pos]
		if g.HasEdge(v, v) {
			return false // self-loop is never properly colourable
		}
		used := make([]bool, k)
		for u := range g.adj[v] {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		for c := 0; c < k; c++ {
			if used[c] {
				continue
			}
			colors[v] = c
			if assign(pos + 1) {
				return true
			}
			colors[v] = -1
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	return colors, true
}

// IsProperColoring verifies that colors is a proper colouring of g.
func (g *Graph) IsProperColoring(colors []int) bool {
	if len(colors) != g.N {
		return false
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return false
		}
	}
	return true
}

// MaxISVertices caps the independent-set counter's input size (bitmask
// representation).
const MaxISVertices = 62

// countIndependentSets counts the independent sets of g (including the
// empty set) with the classic branching recursion
// IS(G) = IS(G − v) + IS(G − N[v]) on a maximum-degree vertex v.
// Vertices with self-loops can never be selected. Exponential in the
// worst case — the problem is #P-complete — but fast on sparse graphs.
func countIndependentSets(g *Graph) (*big.Int, error) {
	if g.N > MaxISVertices {
		return nil, fmt.Errorf("reductions: %d vertices exceeds independent-set counter limit %d", g.N, MaxISVertices)
	}
	// Bitmask adjacency.
	adj := make([]uint64, g.N)
	selfloop := uint64(0)
	for u := 0; u < g.N; u++ {
		for v := range g.adj[u] {
			if u == v {
				selfloop |= 1 << uint(u)
			} else {
				adj[u] |= 1 << uint(v)
			}
		}
	}
	memo := map[uint64]*big.Int{}
	var count func(mask uint64) *big.Int
	count = func(mask uint64) *big.Int {
		if mask == 0 {
			return big.NewInt(1)
		}
		if r, ok := memo[mask]; ok {
			return r
		}
		// Pick the max-degree vertex within the mask.
		best, bestDeg := -1, -1
		for v := 0; v < g.N; v++ {
			if mask&(1<<uint(v)) == 0 {
				continue
			}
			deg := popcount(adj[v] & mask)
			if deg > bestDeg {
				best, bestDeg = v, deg
			}
		}
		v := uint(best)
		// Exclude v.
		r := new(big.Int).Set(count(mask &^ (1 << v)))
		// Include v (unless self-looped): remove v and its neighbours.
		if selfloop&(1<<v) == 0 {
			r.Add(r, count(mask&^(1<<v)&^adj[best]))
		}
		memo[mask] = r
		return r
	}
	full := uint64(0)
	for v := 0; v < g.N; v++ {
		full |= 1 << uint(v)
	}
	return count(full), nil
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// pathIndependentSets returns the number of independent sets of the
// path graph on n vertices: the Fibonacci number F(n+2). Used as a
// closed-form cross-check for the counter.
func pathIndependentSets(n int) *big.Int {
	a, b := big.NewInt(1), big.NewInt(1) // F(1), F(2)
	for i := 0; i < n; i++ {
		a, b = b, new(big.Int).Add(a, b)
	}
	return b // F(n+2)
}
