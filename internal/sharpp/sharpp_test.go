package sharpp

import (
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// fixture: universe {0,1,2}, S/1 with S(0) observed; uncertain atoms
// S(0) (mu 1/4), S(1) (mu 1/3), S(2) (mu 1/6).
func fixtureDB() *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 0)
	d := unreliable.New(s)
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 4))
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{1}}, big.NewRat(1, 3))
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{2}}, big.NewRat(1, 6))
	return d
}

// predSomeS: ∃x S(x).
func predSomeS(b *rel.Structure) (bool, error) {
	for i := 0; i < b.N; i++ {
		if b.Holds("S", rel.Tuple{i}) {
			return true, nil
		}
	}
	return false, nil
}

// exactProb computes Pr[accept] by direct enumeration, independently of
// the oracle machinery.
func exactProb(t *testing.T, d *unreliable.DB, accept func(*rel.Structure) (bool, error)) *big.Rat {
	t.Helper()
	total := new(big.Rat)
	err := d.ForEachWorld(20, func(b *rel.Structure, nu *big.Rat) bool {
		ok, err := accept(b)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			total.Add(total, nu)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestOracleProbMatchesEnumeration(t *testing.T) {
	d := fixtureDB()
	o, err := CountAcceptingPaths(d, predSomeS, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := exactProb(t, d, predSomeS)
	if o.Prob().Cmp(want) != 0 {
		t.Errorf("oracle prob %v, want %v", o.Prob(), want)
	}
	if o.Worlds != 8 {
		t.Errorf("visited %d worlds, want 8", o.Worlds)
	}
	// g = 4·3·6 = 72 (product of denominators).
	if o.G.Int64() != 72 {
		t.Errorf("g = %v, want 72", o.G)
	}
}

func TestOracleAllAndNone(t *testing.T) {
	d := fixtureDB()
	o, err := CountAcceptingPaths(d, func(*rel.Structure) (bool, error) { return true, nil }, 10)
	if err != nil {
		t.Fatal(err)
	}
	if o.Accepting.Cmp(o.G) != 0 {
		t.Errorf("always-accept count %v, want g = %v", o.Accepting, o.G)
	}
	o, err = CountAcceptingPaths(d, func(*rel.Structure) (bool, error) { return false, nil }, 10)
	if err != nil {
		t.Fatal(err)
	}
	if o.Accepting.Sign() != 0 {
		t.Errorf("never-accept count %v, want 0", o.Accepting)
	}
}

func TestOracleBudget(t *testing.T) {
	d := fixtureDB()
	if _, err := CountAcceptingPaths(d, predSomeS, 2); err == nil {
		t.Error("budget not enforced")
	}
}

func TestPaddingEncodeExtract(t *testing.T) {
	pad := Padding{Q: 5, T: 8}
	// Sum of up to 2^5 numbers with adversarial junk.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		total := new(big.Int)
		wantSum := 0
		n := 1 + rng.Intn(32)
		for i := 0; i < n; i++ {
			y := new(big.Int).Rand(rng, big.NewInt(1<<30))
			z := new(big.Int).Rand(rng, big.NewInt(1<<8))
			b := rng.Intn(2) == 0
			if b {
				wantSum++
			}
			enc, err := pad.Encode(y, b, z)
			if err != nil {
				t.Fatal(err)
			}
			total.Add(total, enc)
		}
		if got := pad.ExtractSum(total); got.Int64() != int64(wantSum) {
			t.Fatalf("trial %d: extracted %v, want %d", trial, got, wantSum)
		}
	}
}

func TestPaddingValidation(t *testing.T) {
	pad := Padding{Q: 3, T: 4}
	if _, err := pad.Encode(big.NewInt(1), true, big.NewInt(16)); err == nil {
		t.Error("oversized junk suffix accepted")
	}
	if _, err := pad.Encode(big.NewInt(-1), true, big.NewInt(0)); err == nil {
		t.Error("negative junk prefix accepted")
	}
	if _, err := (Padding{Q: -1}).Encode(big.NewInt(0), true, big.NewInt(0)); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestCountViaPaddingMatchesDirect(t *testing.T) {
	d := fixtureDB()
	want := exactProb(t, d, predSomeS)
	// Junk must not matter: several junk seeds, identical result.
	for seed := int64(0); seed < 5; seed++ {
		po, err := CountViaPadding(d, predSomeS, rand.New(rand.NewSource(seed)), 10)
		if err != nil {
			t.Fatal(err)
		}
		if po.Prob().Cmp(want) != 0 {
			t.Errorf("seed %d: padded prob %v, want %v", seed, po.Prob(), want)
		}
		// The raw total is junk-contaminated: it must differ from the
		// clean accepting count scaled into the window (with overwhelming
		// probability), demonstrating that extraction is doing real work.
		clean := new(big.Int).Lsh(po.Accepting, uint(po.Padding.Q+po.Padding.T))
		if po.Total.Cmp(clean) == 0 {
			t.Logf("seed %d: junk happened to be zero", seed)
		}
	}
}

func TestExpectedError(t *testing.T) {
	d := fixtureDB()
	o, err := CountAcceptingPaths(d, predSomeS, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := o.Prob()
	// Observed database satisfies ∃x S(x), so H = 1 − p.
	h := expectedError(o, true)
	sum := new(big.Rat).Add(h, p)
	if sum.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("H + p = %v, want 1", sum)
	}
	// If the query were false on A, H = p.
	if expectedError(o, false).Cmp(p) != 0 {
		t.Error("H for unobserved query should equal p")
	}
}

func TestOraclePropagatesEvalError(t *testing.T) {
	d := fixtureDB()
	boom := func(*rel.Structure) (bool, error) { return false, errTest }
	if _, err := CountAcceptingPaths(d, boom, 10); err == nil {
		t.Error("eval error swallowed")
	}
	if _, err := CountViaPadding(d, boom, rand.New(rand.NewSource(1)), 10); err == nil {
		t.Error("eval error swallowed in padded variant")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
