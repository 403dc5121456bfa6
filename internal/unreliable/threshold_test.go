package unreliable

import (
	"math/big"
	"math/bits"
	"testing"

	"qrel/internal/rel"
)

// hostileDB gives the uncertain atoms S(0..4) flip probabilities at the
// edges of the 64-bit fixed point: below its resolution, one part in
// 2⁶⁰ short of 1, and over coprime 61-bit denominators.
func hostileDB(t *testing.T) (*DB, [][2]*big.Int) {
	t.Helper()
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	m61 := new(big.Int).Sub(pow(61), one) // 2⁶¹ − 1, prime
	m61b := new(big.Int).Sub(pow(61), big.NewInt(3))
	fracs := [][2]*big.Int{
		{one, pow(70)},
		{new(big.Int).Sub(pow(60), one), pow(60)},
		{big.NewInt(12345), m61},
		{new(big.Int).Sub(m61b, big.NewInt(2)), m61b},
		{big.NewInt(1), big.NewInt(3)},
	}
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	d := New(rel.MustStructure(len(fracs), voc))
	for i, f := range fracs {
		d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, new(big.Rat).SetFrac(f[0], f[1]))
	}
	return d, fracs
}

// TestFlipThresholdsExact: entry i is (a<<64)/b for μ_i = a/b, checked
// against the 128-by-64-bit division of math/bits wherever b fits a
// word, and against the closed forms 0 and 2⁶⁴ − 16 for 2⁻⁷⁰ and
// 1 − 2⁻⁶⁰.
func TestFlipThresholdsExact(t *testing.T) {
	d, fracs := hostileDB(t)
	got := d.FlipThresholds()
	if len(got) != len(fracs) {
		t.Fatalf("%d thresholds for %d uncertain atoms", len(got), len(fracs))
	}
	for i, f := range fracs {
		var want uint64
		switch {
		case i == 0:
			want = 0
		case i == 1:
			want = 1<<64 - 16
		default:
			want, _ = bits.Div64(f[0].Uint64(), 0, f[1].Uint64())
		}
		if got[i] != want {
			t.Errorf("μ = %s/%s: threshold %#x, want %#x", f[0], f[1], got[i], want)
		}
	}
}

// TestCondFlipThresholdsExact holds the conditional thresholds to the
// rational computation of q_j = μ_j / (1 − Π_{k≥j}(1 − μ_k)) on the
// hostile database and on one whose flips are all likely.
func TestCondFlipThresholdsExact(t *testing.T) {
	hostile, _ := hostileDB(t)
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	likely := New(rel.MustStructure(3, voc))
	for i, mu := range []*big.Rat{big.NewRat(9, 10), big.NewRat(1, 2), big.NewRat(2, 3)} {
		likely.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, mu)
	}
	two64 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 64))
	for _, d := range []*DB{hostile, likely} {
		atoms := d.UncertainAtoms()
		got := d.CondFlipThresholds()
		if len(got) != len(atoms)-1 {
			t.Fatalf("%d conditional thresholds for %d atoms", len(got), len(atoms))
		}
		for j := range got {
			none := big.NewRat(1, 1)
			for _, a := range atoms[j:] {
				none.Mul(none, new(big.Rat).Sub(big.NewRat(1, 1), d.ErrorProb(a)))
			}
			q := new(big.Rat).Quo(d.ErrorProb(atoms[j]), none.Sub(big.NewRat(1, 1), none))
			q.Mul(q, two64)
			want := new(big.Int).Quo(q.Num(), q.Denom())
			if !want.IsUint64() || got[j] != want.Uint64() {
				t.Errorf("atom %d: conditional threshold %#x, want %s", j, got[j], want)
			}
		}
	}
}
