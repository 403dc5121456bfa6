// Package unreliable implements the paper's probabilistic model of
// unreliable databases (Definition 2.1): a pair D = (A, mu) of an
// observed finite relational structure A and an error function mu
// assigning to each ground atom R(ā) the probability that its truth
// value in A is wrong. The package provides the induced probability
// space Omega(D) over possible worlds: exact world probabilities nu(B),
// enumeration, sampling, the normalizing integer g used by the FP^#P
// algorithm of Theorem 4.2, and a text codec.
package unreliable

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"qrel/internal/rel"
)

var (
	ratZero = new(big.Rat)
	ratOne  = big.NewRat(1, 1)
	intOne  = big.NewInt(1)
)

// inUnit and isOne compare a probability with 0 and 1 without
// big.Rat.Cmp, which allocates as it scales both sides to a common
// denominator: a big.Rat is kept reduced over a positive denominator,
// so p ≤ 1 exactly when its numerator is at most its denominator, and
// p = 1 exactly when it is the integer 1.
func inUnit(p *big.Rat) bool { return p.Sign() >= 0 && p.Num().CmpAbs(p.Denom()) <= 0 }

func isOne(p *big.Rat) bool { return p.IsInt() && p.Num().Cmp(intOne) == 0 }

// DB is an unreliable database (A, mu). Atoms without an explicit error
// probability are certain (mu = 0). Atoms with mu = 1 are certainly
// wrong and flip deterministically in every possible world.
//
// Any number of goroutines may read a DB concurrently, cold or warm;
// SetError must not run concurrently with anything else. A DB must not
// be copied after first use.
type DB struct {
	// A is the observed database.
	A *rel.Structure

	// mu holds the database's own copy of every nonzero error
	// probability. A value in mu is never mutated — SetError replaces
	// it — so snapshots and clones share the values.
	mu map[rel.AtomKey]*big.Rat
	// numUncertain counts the entries of mu below 1, kept by SetError so
	// that a builder looping "until NumUncertain reaches u" does not
	// rebuild the atom lists once per atom.
	numUncertain int

	// derived is everything computed from mu. SetError clears it; the
	// first reader afterwards rebuilds it once under rebuild, and every
	// other read is one atomic load of an immutable value — it sits on
	// the per-sample path of every estimator lane.
	rebuild sync.Mutex
	derived atomic.Pointer[atomLists]
}

// atomLists is the snapshot of a DB's non-certain atoms. The lists are
// complete when it is published; the tables the exact engines and the
// compiler read — the per-relation flip indexes FlipIndex and RelFlips
// answer from, and the integer weights — are derived from them on first
// use, so a builder that alternates SetError with reads pays only for
// the lists.
type atomLists struct {
	uncertain []entry // atoms with 0 < mu < 1, in canonical order
	sure      []entry // atoms with mu = 1 (deterministic flips)
	// The fixed-point thresholds of FlipThresholds and
	// CondFlipThresholds: only the samplers ask, the rare-event one for
	// the second.
	flipOnce, condOnce sync.Once
	flip, cond         []uint64

	// n is the universe size the flip indexes are laid out over.
	n int

	tablesOnce sync.Once
	// flips is each relation's flip index (see Flips), the position of
	// an uncertain atom in uncertain addressed by its tuple's rank; a
	// relation without uncertain or mu = 1 atoms is absent.
	flips   map[string]*Flips
	weights Weights

	// nu[i] is nu of the i-th uncertain atom: only the lineage and
	// quantifier-free engines ask (see Nu).
	nuOnce sync.Once
	nu     []*big.Rat

	// The weights over their least common denominator: only the
	// quantifier-free engine asks, and on a database with many coprime
	// denominators they are large.
	lcmOnce sync.Once
	overLCM Weights
	lcm     *big.Int
}

// tables returns l with the flip index and weights built.
func (l *atomLists) tables() *atomLists {
	l.tablesOnce.Do(func() {
		l.flips = buildFlips(l.n, l.uncertain, l.sure)
		l.weights = newWeights(l.uncertain)
	})
	return l
}

type entry struct {
	atom rel.GroundAtom
	mu   *big.Rat
	muF  float64 // float approximation, for the scalar samplers
}

// New wraps an observed structure as an unreliable database with all
// error probabilities zero. The structure is used by reference; callers
// must not mutate it afterwards.
func New(a *rel.Structure) *DB {
	return &DB{A: a, mu: map[rel.AtomKey]*big.Rat{}}
}

// SetError sets mu(atom) = p. It validates that the atom is well formed
// over A's vocabulary and universe and that p ∈ [0, 1]. Setting 0
// removes the atom from the uncertain set. The database keeps its own
// copy of p, so the caller may reuse p.
func (d *DB) SetError(atom rel.GroundAtom, p *big.Rat) error {
	r := d.A.Rel(atom.Rel)
	if r == nil {
		return fmt.Errorf("unreliable: unknown relation %q", atom.Rel)
	}
	if r.Arity != len(atom.Args) {
		return fmt.Errorf("unreliable: atom %v has arity %d, relation expects %d", atom, len(atom.Args), r.Arity)
	}
	for _, e := range atom.Args {
		if e < 0 || e >= d.A.N {
			return fmt.Errorf("unreliable: atom %v mentions element outside universe [0,%d)", atom, d.A.N)
		}
	}
	if p == nil || !inUnit(p) {
		return fmt.Errorf("unreliable: error probability %v outside [0,1]", p)
	}
	k := atom.Key()
	if old, ok := d.mu[k]; ok && !isOne(old) {
		d.numUncertain--
	}
	if p.Sign() == 0 {
		delete(d.mu, k)
	} else {
		d.mu[k] = new(big.Rat).Set(p)
		if !isOne(p) {
			d.numUncertain++
		}
	}
	d.derived.Store(nil)
	return nil
}

// MustSetError is SetError that panics on error.
func (d *DB) MustSetError(atom rel.GroundAtom, p *big.Rat) {
	if err := d.SetError(atom, p); err != nil {
		panic(err)
	}
}

// ErrorProb returns mu(atom); atoms never set have mu = 0.
func (d *DB) ErrorProb(atom rel.GroundAtom) *big.Rat {
	if p, ok := d.mu[atom.Key()]; ok {
		return new(big.Rat).Set(p)
	}
	return new(big.Rat)
}

// NuAtom returns nu(atom), the probability that the atom holds in the
// actual database: 1 − mu if A ⊨ atom, mu otherwise (Section 2).
func (d *DB) NuAtom(atom rel.GroundAtom) *big.Rat {
	mu := d.ErrorProb(atom)
	if d.A.Holds(atom.Rel, atom.Args) {
		return mu.Sub(ratOne, mu)
	}
	return mu
}

// Nu returns nu(atom) as NuAtom does, as a value of the current
// snapshot that is shared with every other caller and must not be
// modified: an uncertain atom's nu is built once per snapshot, in the
// flip index's order, and every certain or mu = 1 atom gets one of two
// shared constants 0 and 1. Engines that read nu for many atoms of many
// tuples call it instead of NuAtom, which allocates.
func (d *DB) Nu(atom rel.GroundAtom) *big.Rat {
	l := d.atoms()
	i, sure := l.relFlips(atom.Rel).Index(atom.Args)
	if i < 0 {
		if d.A.Holds(atom.Rel, atom.Args) != sure {
			return ratOne
		}
		return ratZero
	}
	l.nuOnce.Do(func() {
		// nu_j is mu_j when the atom is absent, and Keep_j/Den_j, reduced,
		// when it holds: those rationals come from one slab and share the
		// weights' read-only words. A Rat's denominator is its own to set
		// only once the Rat holds a value, so each starts as a shallow
		// copy of 1 and then takes the weights' words for both parts,
		// keeping nothing of the copy.
		w := l.weights
		holds := 0
		for _, e := range l.uncertain {
			if d.A.Holds(e.atom.Rel, e.atom.Args) {
				holds++
			}
		}
		rats := make([]big.Rat, holds)
		l.nu = make([]*big.Rat, len(l.uncertain))
		for j, e := range l.uncertain {
			if !d.A.Holds(e.atom.Rel, e.atom.Args) {
				l.nu[j] = e.mu
				continue
			}
			r := &rats[0]
			rats = rats[1:]
			*r = *ratOne
			r.Num().SetBits(w.Keep[j].Bits())
			r.Denom().SetBits(w.Den[j].Bits())
			l.nu[j] = r
		}
	})
	return l.nu[i]
}

// atoms returns the snapshot of the uncertain and sure atoms in
// canonical order (relation name, then tuple key), building it if a
// mutation invalidated the last one.
func (d *DB) atoms() *atomLists {
	if l := d.derived.Load(); l != nil {
		return l
	}
	d.rebuild.Lock()
	defer d.rebuild.Unlock()
	if l := d.derived.Load(); l != nil {
		return l
	}
	width := 0 // the atoms' elements, all told
	for k := range d.mu {
		width += k.Arity
	}
	l := &atomLists{
		n:         d.A.N,
		uncertain: make([]entry, 0, d.numUncertain),
		sure:      make([]entry, 0, len(d.mu)-d.numUncertain),
	}
	// Every atom's tuple is decoded into one slab, each capped at its
	// own arity.
	args := make(rel.Tuple, width)
	for k, p := range d.mu {
		t := rel.UnpackKey(k.Tup, args[:k.Arity:k.Arity])
		args = args[k.Arity:]
		e := entry{atom: rel.GroundAtom{Rel: k.Rel, Args: t}, mu: p, muF: muFloat(p)}
		if isOne(p) {
			l.sure = append(l.sure, e)
		} else {
			l.uncertain = append(l.uncertain, e)
		}
	}
	// Within a relation, tuple order is Tuple.Key order.
	canonical := func(a, b entry) int {
		if c := strings.Compare(a.atom.Rel, b.atom.Rel); c != 0 {
			return c
		}
		return slices.Compare(a.atom.Args, b.atom.Args)
	}
	slices.SortFunc(l.uncertain, canonical)
	slices.SortFunc(l.sure, canonical)
	d.derived.Store(l)
	return l
}

// muFloat is p.Float64() without its big-integer division: when both
// parts of p are below 2^53 they are exact float64s, and IEEE division
// rounds their quotient correctly, as Float64 does.
func muFloat(p *big.Rat) float64 {
	const exact = 1 << 53
	num, den := p.Num(), p.Denom()
	if num.IsUint64() && den.IsUint64() && num.Uint64() < exact && den.Uint64() < exact {
		return float64(num.Uint64()) / float64(den.Uint64())
	}
	f, _ := p.Float64()
	return f
}

// UncertainAtoms returns the atoms with 0 < mu < 1 in canonical order.
// The possible worlds of Omega(D) with nonzero probability are exactly
// the 2^u flips of these atoms (after the deterministic mu = 1 flips).
func (d *DB) UncertainAtoms() []rel.GroundAtom {
	uncertain := d.atoms().uncertain
	out := make([]rel.GroundAtom, len(uncertain))
	for i, e := range uncertain {
		out[i] = e.atom
	}
	return out
}

// SureFlips returns the atoms with mu = 1.
func (d *DB) SureFlips() []rel.GroundAtom {
	sure := d.atoms().sure
	out := make([]rel.GroundAtom, len(sure))
	for i, e := range sure {
		out[i] = e.atom
	}
	return out
}

// NumUncertain returns the number of atoms with 0 < mu < 1.
func (d *DB) NumUncertain() int { return d.numUncertain }

// FlipIndex classifies a ground atom by how it varies across the
// possible worlds: (i, false) for the i-th uncertain atom in canonical
// order, (-1, true) for a mu = 1 atom that flips in every world, and
// (-1, false) for a certain atom — or for anything that is not an atom
// of the vocabulary over the universe. It reads the relation's Flips.
func (d *DB) FlipIndex(a rel.GroundAtom) (i int, sure bool) {
	return d.RelFlips(a.Rel).Index(a.Args)
}

// RelFlips returns the named relation's flip index in the current
// snapshot. A caller that classifies many tuples of one relation
// resolves it once; it is invalidated, like every snapshot, by
// SetError.
func (d *DB) RelFlips(name string) *Flips { return d.atoms().relFlips(name) }

// relFlips is RelFlips in the snapshot l.
func (l *atomLists) relFlips(name string) *Flips {
	if x := l.tables().flips[name]; x != nil {
		return x
	}
	return noFlips
}

// WorldCount returns |{B : nu(B) > 0}| = 2^u.
func (d *DB) WorldCount() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(d.numUncertain))
}

// IsPositiveOnly reports whether the database fits de Rougemont's
// restricted model (Section 3 Remark): errors only on positive data,
// i.e. mu(Rā) > 0 implies A ⊨ Rā.
func (d *DB) IsPositiveOnly() bool {
	for k, p := range d.mu {
		if p.Sign() > 0 {
			a := k.Atom()
			if !d.A.Holds(a.Rel, a.Args) {
				return false
			}
		}
	}
	return true
}

// Clone returns a copy of the unreliable database: the observed
// structure is deep-copied, and the error probabilities are shared,
// which is safe because no value in mu is ever mutated.
func (d *DB) Clone() *DB {
	return &DB{A: d.A.Clone(), mu: maps.Clone(d.mu), numUncertain: d.numUncertain}
}

// World materializes the possible world identified by mask: bit i of
// mask flips uncertain atom i (in canonical order), and all mu = 1
// atoms are flipped unconditionally.
func (d *DB) World(mask uint64) *rel.Structure {
	l := d.atoms()
	b := l.sureWorld(d.A)
	for i, e := range l.uncertain {
		if mask&(1<<uint(i)) != 0 {
			b.Rel(e.atom.Rel).Toggle(e.atom.Args)
		}
	}
	return b
}

// sureWorld clones the observed structure and applies the
// deterministic mu = 1 flips: the world every flip mask starts from.
func (l *atomLists) sureWorld(a *rel.Structure) *rel.Structure {
	b := a.Clone()
	for _, e := range l.sure {
		b.Rel(e.atom.Rel).Toggle(e.atom.Args)
	}
	return b
}

// WorldProb returns the probability of the world identified by mask:
// the product over uncertain atoms of mu (flipped) or 1 − mu (kept).
func (d *DB) WorldProb(mask uint64) *big.Rat {
	p := new(big.Rat).Set(ratOne)
	for i, e := range d.atoms().uncertain {
		if mask&(1<<uint(i)) != 0 {
			p.Mul(p, e.mu)
		} else {
			p.Mul(p, new(big.Rat).Sub(ratOne, e.mu))
		}
	}
	return p
}

// MaxEnumAtoms is the hard cap on uncertain atoms for exact world
// enumeration (2^u worlds).
const MaxEnumAtoms = 30

// ErrEnumBudget is wrapped in errors returned when an enumeration —
// of worlds, uncertain atoms or site combinations — would exceed its
// budget; callers use it to distinguish "instance too large for this
// engine" from evaluation failures. A wrapper names what it counted and
// the budget once: "<ErrEnumBudget>: 20 uncertain atoms, budget 16".
var ErrEnumBudget = fmt.Errorf("unreliable: enumeration budget exceeded")

// ForEachWorld enumerates the possible worlds B ∈ Omega(D) with their
// probabilities nu(B), calling fn for each; fn returning false stops the
// enumeration. The structure passed to fn is freshly cloned per world
// and may be retained. budget caps the number of uncertain atoms (u ≤
// budget); prefer small budgets — the enumeration visits 2^u worlds.
func (d *DB) ForEachWorld(budget int, fn func(b *rel.Structure, nu *big.Rat) bool) error {
	return d.ForEachWorldCtx(context.Background(), budget, fn)
}

// ForEachWorldCtx is ForEachWorld with cooperative cancellation: the
// enumeration checks ctx between worlds and returns ctx's error when it
// is canceled or its deadline passes. This is the reference enumerator
// the interpreted exact paths share, so a cancellation here propagates
// a bounded-latency stop through all of them.
//
// nu(B) is formed from the integer weights (see Weights): a Walk keeps
// the numerator across the counting order and each world normalises it
// once over g, instead of multiplying u rationals per world.
func (d *DB) ForEachWorldCtx(ctx context.Context, budget int, fn func(b *rel.Structure, nu *big.Rat) bool) error {
	u := d.NumUncertain()
	if u > budget || u > MaxEnumAtoms {
		return fmt.Errorf("%w: %d uncertain atoms, budget %d", ErrEnumBudget, u, budget)
	}
	w := d.Weights()
	g := w.G()
	walk := w.Walk(0)
	for mask := uint64(0); mask < uint64(1)<<uint(u); mask++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !fn(d.World(mask), new(big.Rat).SetFrac(walk.Weight(), g)) {
			return nil
		}
		walk.Next()
	}
	return nil
}

// NuWorld returns nu(B), the probability that the actual database is B
// (Section 2): the product over all ground atoms of nu(literal as it
// holds in B). It is zero whenever B disagrees with the observed
// database on a certain atom or agrees on a mu = 1 atom. B must have
// the same universe size; the vocabulary is taken from A.
func (d *DB) NuWorld(b *rel.Structure) (*big.Rat, error) {
	if b.N != d.A.N {
		return nil, fmt.Errorf("unreliable: world has universe %d, observed %d", b.N, d.A.N)
	}
	p := new(big.Rat).Set(ratOne)
	var err error
	d.A.ForEachGroundAtom(func(a rel.GroundAtom) bool {
		br := b.Rel(a.Rel)
		if br == nil {
			err = fmt.Errorf("unreliable: world lacks relation %q", a.Rel)
			return false
		}
		inA := d.A.Holds(a.Rel, a.Args)
		inB := br.Contains(a.Args)
		mu := d.ErrorProb(a)
		if inA == inB {
			p.Mul(p, new(big.Rat).Sub(ratOne, mu))
		} else {
			p.Mul(p, mu)
		}
		if p.Sign() == 0 {
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// WorldBuf is a reusable scratch world for allocation-free sampling:
// one structure is cloned when the buffer is created and every
// subsequent draw only undoes the previous draw's flips and applies the
// new ones. A buffer belongs to one sampling goroutine (a "lane") and
// is invalidated by any mutation of the database it was created from.
type WorldBuf struct {
	b *rel.Structure
	// atoms are the uncertain atoms (canonical order) resolved against b.
	atoms []bufAtom
	flips []int // indices into atoms currently toggled in b
}

// bufAtom is an uncertain atom bound to its relation in a WorldBuf's
// structure: its bit when the relation is dense, else its tuple.
type bufAtom struct {
	r    *rel.Relation
	rank int // -1 for a sparse relation
	args rel.Tuple
}

// NewWorldBuf clones the observed structure once (with the mu = 1
// flips applied), resolves every uncertain atom to its relation and
// bit there, and returns a buffer that SampleWorldInto and Load can
// reuse for every world of a sampling loop.
func (d *DB) NewWorldBuf() *WorldBuf {
	l := d.atoms()
	w := &WorldBuf{b: l.sureWorld(d.A), atoms: make([]bufAtom, len(l.uncertain)), flips: make([]int, 0, len(l.uncertain))}
	for i, e := range l.uncertain {
		r := w.b.Rel(e.atom.Rel)
		w.atoms[i] = bufAtom{r: r, rank: r.Rank(e.atom.Args), args: e.atom.Args}
	}
	return w
}

// flip toggles atom i in the buffered structure.
func (w *WorldBuf) flip(i int) {
	a := &w.atoms[i]
	if a.rank >= 0 {
		a.r.ToggleRank(a.rank)
	} else {
		a.r.Toggle(a.args)
	}
}

// reset undoes the previous draw's flips, restoring the buffer to the
// observed database with the deterministic mu = 1 flips applied.
func (w *WorldBuf) reset() {
	for _, i := range w.flips {
		w.flip(i)
	}
	w.flips = w.flips[:0]
}

// toggle flips uncertain atom i (canonical order) in the buffer and
// records it for the next reset.
func (w *WorldBuf) toggle(i int) {
	w.flip(i)
	w.flips = append(w.flips, i)
}

// Load materializes world s of a block in column layout — bit s of
// cols[i] set when uncertain atom i (canonical order) flips, the layout
// the block samplers draw and compiled programs read — into the buffer
// and returns the buffered structure. It is valid until the next Load
// or SampleWorldInto on the buffer and must not be retained or mutated
// by the caller.
func (w *WorldBuf) Load(cols []uint64, s uint) *rel.Structure {
	w.reset()
	for i, c := range cols {
		if c>>s&1 != 0 {
			w.toggle(i)
		}
	}
	return w.b
}

// SampleWorldInto draws a random world from Omega(D) into buf, using
// float64 approximations of the flip probabilities — one Float64 per
// uncertain atom, in canonical order — and returns the buffered
// structure. It is valid until the next draw into buf.
func (d *DB) SampleWorldInto(rng *rand.Rand, buf *WorldBuf) *rel.Structure {
	uncertain := d.atoms().uncertain
	buf.reset()
	for i := range uncertain {
		if rng.Float64() < uncertain[i].muF {
			buf.toggle(i)
		}
	}
	return buf.b
}

// G returns the least-denominator normalizer used by the FP^#P
// algorithm of Theorem 4.2: an integer g such that nu(B)·g ∈ ℕ for
// every world B. Since nu(B) is a product of per-atom factors with
// (reduced) denominators dividing q_atom, the product of the q_atom
// clears every world probability.
//
// NOTE (erratum): the paper computes g by iterated gcd steps, which
// yields the LCM of the denominators. The lcm does not satisfy
// nu(B)·g ∈ ℕ when several atoms share denominator factors — with two
// atoms of probability 1/2, nu(B) = 1/4 but lcm = 2. GPaperLCM
// implements the paper's literal algorithm for comparison; G implements
// the corrected product. See EXPERIMENTS.md (E3).
func (d *DB) G() *big.Int { return d.Weights().G() }

// GPaperLCM runs the paper's literal gcd-loop over the denominators of
// the nu(Rā), producing their least common multiple. Kept for the E3
// experiment, which demonstrates that it can fail the defining property
// of g. Use G for correct results.
func (d *DB) GPaperLCM() *big.Int {
	g := big.NewInt(1)
	tmp := new(big.Int)
	for _, e := range d.atoms().uncertain {
		den := e.mu.Denom()
		b := new(big.Int).GCD(nil, nil, g, den)
		if b.Cmp(den) == 0 {
			continue // d is a factor of g'
		}
		g.Mul(g, tmp.Div(den, b))
	}
	return g
}

// ValidateWorldProbabilities checks Σ_B nu(B) = 1 by enumeration; a
// sanity invariant used in tests and the experiment harness.
func (d *DB) ValidateWorldProbabilities(budget int) error {
	total := new(big.Rat)
	err := d.ForEachWorld(budget, func(_ *rel.Structure, nu *big.Rat) bool {
		total.Add(total, nu)
		return true
	})
	if err != nil {
		return err
	}
	if total.Cmp(ratOne) != 0 {
		return fmt.Errorf("unreliable: world probabilities sum to %v, want 1", total)
	}
	return nil
}
