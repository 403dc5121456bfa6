package reductions

import (
	"fmt"
	"math/big"
	"math/rand"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Monotone2CNF is a propositional formula ⋀ (Y_i ∨ Z_i) without
// negations: the input of #MONOTONE-2SAT, the #P-complete problem
// (Valiant) that Proposition 3.2 reduces to query reliability. Clauses
// are pairs of variable indices in [0, NumVars); the two indices may
// coincide (a unit clause).
type Monotone2CNF struct {
	NumVars int
	Clauses [][2]int
}

// Validate checks the variable indices.
func (c Monotone2CNF) Validate() error {
	for i, cl := range c.Clauses {
		if cl[0] < 0 || cl[0] >= c.NumVars || cl[1] < 0 || cl[1] >= c.NumVars {
			return fmt.Errorf("reductions: clause %d = %v outside variable range [0,%d)", i, cl, c.NumVars)
		}
	}
	return nil
}

// Eval reports whether the assignment satisfies the formula.
func (c Monotone2CNF) Eval(a []bool) bool {
	for _, cl := range c.Clauses {
		if !a[cl[0]] && !a[cl[1]] {
			return false
		}
	}
	return true
}

// CountSatBruteForce counts satisfying assignments by enumeration;
// limited to maxVars variables.
func (c Monotone2CNF) CountSatBruteForce(maxVars int) (*big.Int, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NumVars > maxVars || c.NumVars > 30 {
		return nil, fmt.Errorf("reductions: %d variables exceed brute-force budget %d", c.NumVars, maxVars)
	}
	count := new(big.Int)
	one := big.NewInt(1)
	a := make([]bool, c.NumVars)
	for m := uint64(0); m < uint64(1)<<uint(c.NumVars); m++ {
		for i := range a {
			a[i] = m&(1<<uint(i)) != 0
		}
		if c.Eval(a) {
			count.Add(count, one)
		}
	}
	return count, nil
}

// ClauseGraph returns the graph with one vertex per variable and one
// edge {Y_i, Z_i} per clause. An assignment satisfies the formula iff
// its set of FALSE variables is an independent set of this graph, so
// #SAT = #IS(ClauseGraph).
func (c Monotone2CNF) ClauseGraph() (*Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := NewGraph(c.NumVars)
	for _, cl := range c.Clauses {
		g.MustAddEdge(cl[0], cl[1])
	}
	return g, nil
}

// CountSat counts satisfying assignments via the independent-set
// branching counter — the scalable exact algorithm used to validate the
// Proposition 3.2 reduction on instances too large for brute force.
func (c Monotone2CNF) CountSat() (*big.Int, error) {
	g, err := c.ClauseGraph()
	if err != nil {
		return nil, err
	}
	return countIndependentSets(g)
}

// RandomMonotone2CNF draws a random instance with the given number of
// variables and clauses (uniform distinct variable pairs).
func RandomMonotone2CNF(rng *rand.Rand, numVars, numClauses int) Monotone2CNF {
	c := Monotone2CNF{NumVars: numVars}
	for i := 0; i < numClauses; i++ {
		y := rng.Intn(numVars)
		z := rng.Intn(numVars)
		for z == y && numVars > 1 {
			z = rng.Intn(numVars)
		}
		c.Clauses = append(c.Clauses, [2]int{y, z})
	}
	return c
}

// Mon2SatQuery is the fixed conjunctive query of Proposition 3.2:
// it expresses, on the structure (A, L, R, S) encoding a formula and an
// assignment, that the assignment does NOT satisfy the formula (both
// chosen literals of some clause are false).
const Mon2SatQuery = "exists x y z . L(x,y) & R(x,z) & S(y) & S(z)"

// Mon2SatInstance is the unreliable database built from a monotone
// 2-CNF by the Proposition 3.2 reduction.
type Mon2SatInstance struct {
	// DB encodes the formula with universe = clauses ∪ variables,
	// relations L, R (certain) and S = all variables, each S-atom with
	// error probability 1/2.
	DB *unreliable.DB
	// Query is the parsed Mon2SatQuery.
	Query logic.Formula
	// NumVars and NumClauses record the instance shape; VarElem maps
	// variable i to its universe element.
	NumVars, NumClauses int
	// VarElem maps variable index to universe element.
	VarElem func(i int) int
}

// BuildMon2SatInstance performs the Proposition 3.2 reduction: given a
// positive 2-CNF it constructs in polynomial time the unreliable
// database whose expected error under Mon2SatQuery is
// #SAT / 2^NumVars.
func BuildMon2SatInstance(c Monotone2CNF) (*Mon2SatInstance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m := len(c.Clauses)
	n := c.NumVars
	voc := rel.MustVocabulary(
		rel.RelSym{Name: "L", Arity: 2},
		rel.RelSym{Name: "R", Arity: 2},
		rel.RelSym{Name: "S", Arity: 1},
	)
	s, err := rel.NewStructure(m+n, voc)
	if err != nil {
		return nil, err
	}
	varElem := func(i int) int { return m + i }
	for u, cl := range c.Clauses {
		s.MustAdd("L", u, varElem(cl[0]))
		s.MustAdd("R", u, varElem(cl[1]))
	}
	db := unreliable.New(s)
	half := big.NewRat(1, 2)
	for i := 0; i < n; i++ {
		// S holds every variable: the all-false assignment.
		s.MustAdd("S", varElem(i))
		if err := db.SetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{varElem(i)}}, half); err != nil {
			return nil, err
		}
	}
	return &Mon2SatInstance{
		DB:         db,
		Query:      logic.MustParse(Mon2SatQuery, nil),
		NumVars:    n,
		NumClauses: m,
		VarElem:    varElem,
	}, nil
}

// ExpectedCount converts an exact expected error H of the reduction
// instance into the #SAT count it encodes: #SAT = H · 2^NumVars.
func (inst *Mon2SatInstance) ExpectedCount(h *big.Rat) (*big.Int, error) {
	scaled := new(big.Rat).Mul(h, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(inst.NumVars))))
	if !scaled.IsInt() {
		return nil, fmt.Errorf("reductions: H·2^n = %v is not integral; reduction broken", scaled)
	}
	return new(big.Int).Set(scaled.Num()), nil
}
