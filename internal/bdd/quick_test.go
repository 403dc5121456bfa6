package bdd

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"qrel/internal/prop"
)

// hostileDNF decodes bytes into a DNF that exercises what FromDNF must
// tolerate: negation, duplicate literals and terms, contradictory and
// empty terms, variables no term mentions, and (given enough bytes) far
// more than 64 terms. The low three bits of a byte select "end of term"
// (7), "repeat the previous term" (6) or a literal whose sign is bit 0
// and whose variable the high bits.
func hostileDNF(data []byte) prop.DNF {
	if len(data) < 2 {
		return prop.DNF{NumVars: 1}
	}
	used := 1 + int(data[0])%12
	d := prop.DNF{NumVars: used + int(data[1])%3}
	cur := prop.Term{}
	for _, c := range data[2:] {
		switch c & 7 {
		case 7:
			d.Terms = append(d.Terms, cur)
			cur = prop.Term{}
		case 6:
			if n := len(d.Terms); n > 0 {
				d.Terms = append(d.Terms, d.Terms[n-1].Clone())
			}
		default:
			cur = append(cur, prop.Lit{Var: int(c>>3) % used, Neg: c&1 == 1})
		}
	}
	if len(cur) > 0 {
		d.Terms = append(d.Terms, cur)
	}
	return d
}

// hostileProbs draws probabilities that stress the unreduced integer
// count: 0 and 1, small pairwise coprime denominators, and denominators
// beyond 64 bits.
func hostileProbs(rng *rand.Rand, numVars int) prop.ProbAssignment {
	primes := []int64{2, 3, 5, 7, 11, 13, 17, 19, 23}
	wide := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3))
	p := make(prop.ProbAssignment, numVars)
	for v := range p {
		switch rng.Intn(6) {
		case 0:
			p[v] = new(big.Rat)
		case 1:
			p[v] = big.NewRat(1, 1)
		case 2:
			num := new(big.Int).Rand(rng, wide)
			p[v] = new(big.Rat).SetFrac(num, wide)
		default:
			den := primes[rng.Intn(len(primes))]
			p[v] = big.NewRat(rng.Int63n(den+1), den)
		}
	}
	return p
}

// refProb is the big.Rat-per-node recursion Prob used before it counted
// in integers, kept as the reference: P(m) = (1 - p)·P(lo) + p·P(hi),
// every intermediate normalised.
func refProb(b *BDD, n int, p prop.ProbAssignment) *big.Rat {
	one := big.NewRat(1, 1)
	memo := map[int]*big.Rat{False: new(big.Rat), True: one}
	var visit func(int) *big.Rat
	visit = func(m int) *big.Rat {
		if r, ok := memo[m]; ok {
			return r
		}
		nd := b.nodes[m]
		pv := p[b.varOf(nd.v)]
		r := new(big.Rat).Mul(new(big.Rat).Sub(one, pv), visit(int(nd.lo)))
		r.Add(r, new(big.Rat).Mul(pv, visit(int(nd.hi))))
		memo[m] = r
		return r
	}
	return visit(n)
}

// checkFromDNF holds FromDNF — chosen order, deepest-first OR — and the
// integer Prob against their references on one DNF.
func checkFromDNF(t testing.TB, d prop.DNF, p prop.ProbAssignment) {
	t.Helper()
	mgr := New(d.NumVars, 0)
	root, err := mgr.FromDNF(d)
	if err != nil {
		t.Fatalf("FromDNF(%v): %v", d, err)
	}
	// Canonicity: the left-to-right fold in the same manager, under the
	// same order, is the identical node.
	fold := orFold(t, mgr, d)
	if fold != root {
		t.Fatalf("FromDNF(%v) = node %d, left-to-right fold = node %d", d, root, fold)
	}
	if d.NumVars <= 12 {
		a := make([]bool, d.NumVars)
		for w := 0; w < 1<<uint(d.NumVars); w++ {
			for v := range a {
				a[v] = w>>uint(v)&1 == 1
			}
			if mgr.Eval(root, a) != d.Eval(a) {
				t.Fatalf("Eval(%v) = %v on %v, DNF says %v", d, mgr.Eval(root, a), a, d.Eval(a))
			}
		}
		want, err := d.CountBruteForce(12)
		if err != nil {
			t.Fatal(err)
		}
		if got := mgr.Count(root); got.Cmp(want) != 0 {
			t.Fatalf("Count(%v) = %v, brute force %v", d, got, want)
		}
	}
	got, err := mgr.Prob(root, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := refProb(mgr, root, p); got.String() != want.String() {
		t.Fatalf("Prob(%v, %v) = %v, per-node big.Rat recursion %v", d, p, got, want)
	}
	checkReset(t, d, p)
}

// checkReset compiles d on a manager that first compiled an unrelated,
// larger DNF and was then Reset: every node, the order, the root, the
// node count, the size and Prob must be a fresh manager's.
func checkReset(t testing.TB, d prop.DNF, p prop.ProbAssignment) {
	t.Helper()
	fresh := New(d.NumVars, 0)
	root, err := fresh.FromDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := fresh.Prob(root, p)
	if err != nil {
		t.Fatal(err)
	}
	other := hubLineage(4)
	reused := New(other.NumVars, 0)
	if _, err := reused.FromDNF(other); err != nil {
		t.Fatal(err)
	}
	reused.Reset(d.NumVars)
	got, err := reused.FromDNF(d)
	if err != nil {
		t.Fatalf("FromDNF(%v) after Reset: %v", d, err)
	}
	if got != root || reused.NumNodes() != fresh.NumNodes() || reused.Size(got) != fresh.Size(root) ||
		!slices.Equal(reused.nodes, fresh.nodes) || !slices.Equal(reused.varAt, fresh.varAt) {
		t.Fatalf("FromDNF(%v) after Reset: root %d of %d nodes, size %d, order %v; fresh manager: root %d of %d, size %d, order %v",
			d, got, reused.NumNodes(), reused.Size(got), reused.varAt, root, fresh.NumNodes(), fresh.Size(root), fresh.varAt)
	}
	if pr, err := reused.Prob(got, p); err != nil || pr.Cmp(prob) != 0 {
		t.Fatalf("Prob(%v) after Reset = %v, %v; fresh manager %v", d, pr, err, prob)
	}
}

// TestQuickBDDEquivalence checks, for arbitrary seeds, that the BDD of
// a random DNF — plain, then hostile — is the node the left-to-right
// fold builds, evaluates like the DNF on every assignment, counts like
// brute force, and that Prob equals the per-node big.Rat recursion.
func TestQuickBDDEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(8)
		checkFromDNF(t, randDNF(rng, nv, 1+rng.Intn(6), 3), hostileProbs(rng, nv))
		data := make([]byte, 2+rng.Intn(400)) // up to ~100 terms
		rng.Read(data)
		d := hostileDNF(data)
		checkFromDNF(t, d, hostileProbs(rng, d.NumVars))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzFromDNF feeds hostileDNF's decoding of arbitrary bytes to
// checkFromDNF.
func FuzzFromDNF(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 7})                            // one empty term: True
	f.Add([]byte{3, 0, 0, 1, 7})                      // x0 ∧ ¬x0
	f.Add([]byte{11, 2, 0, 8, 16, 7, 6, 6, 24, 9, 7}) // repeats, unused variables
	f.Fuzz(func(t *testing.T, data []byte) {
		d := hostileDNF(data)
		seed := int64(len(data))
		for _, c := range data {
			seed = seed*31 + int64(c)
		}
		checkFromDNF(t, d, hostileProbs(rand.New(rand.NewSource(seed)), d.NumVars))
	})
}

// TestQuickNegationInvolution checks Not(Not(x)) == x node identity and
// Prob(f) + Prob(!f) = 1 for random formulas and probabilities.
func TestQuickNegationInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(6)
		d := randDNF(rng, nv, 1+rng.Intn(5), 3)
		mgr := New(nv, 0)
		root, err := mgr.FromDNF(d)
		if err != nil {
			return false
		}
		neg, err := mgr.Not(root)
		if err != nil {
			return false
		}
		back, err := mgr.Not(neg)
		if err != nil || back != root {
			return false
		}
		p := make(prop.ProbAssignment, nv)
		for i := range p {
			p[i] = big.NewRat(int64(rng.Intn(11)), 10)
		}
		pf, err1 := mgr.Prob(root, p)
		pn, err2 := mgr.Prob(neg, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return new(big.Rat).Add(pf, pn).Cmp(big.NewRat(1, 1)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeMorgan checks And/Or duality through Not on random pairs.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(4)
		d1 := randDNF(rng, nv, 1+rng.Intn(4), 3)
		d2 := randDNF(rng, nv, 1+rng.Intn(4), 3)
		mgr := New(nv, 0)
		a, err1 := mgr.FromDNF(d1)
		b, err2 := mgr.FromDNF(d2)
		if err1 != nil || err2 != nil {
			return false
		}
		ab, err := mgr.And(a, b)
		if err != nil {
			return false
		}
		notAB, err := mgr.Not(ab)
		if err != nil {
			return false
		}
		na, err1 := mgr.Not(a)
		nb, err2 := mgr.Not(b)
		if err1 != nil || err2 != nil {
			return false
		}
		orN, err := mgr.Or(na, nb)
		if err != nil {
			return false
		}
		// Canonicity: De Morgan duals are the identical node.
		return notAB == orN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
