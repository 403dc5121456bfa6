package unreliable

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"qrel/internal/rel"
)

const sampleDB = `
# example unreliable database
universe 5
rel E/2
rel S/1
const c 0
E 0 1
E 1 2 err 1/10
S 3 absent err 1/2
S 4 err 0.25
`

func TestParseDBBasic(t *testing.T) {
	d, err := ParseDB(strings.NewReader(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	if d.A.N != 5 {
		t.Errorf("universe %d", d.A.N)
	}
	if !d.A.Holds("E", rel.Tuple{0, 1}) || !d.A.Holds("E", rel.Tuple{1, 2}) {
		t.Error("facts missing")
	}
	if d.A.Holds("S", rel.Tuple{3}) {
		t.Error("absent atom added as fact")
	}
	if !d.A.Holds("S", rel.Tuple{4}) {
		t.Error("S 4 missing")
	}
	if d.A.Consts["c"] != 0 {
		t.Error("constant not set")
	}
	if got := d.ErrorProb(atomE(1, 2)); got.Cmp(big.NewRat(1, 10)) != 0 {
		t.Errorf("err(E 1 2) = %v", got)
	}
	if got := d.ErrorProb(atomS(3)); got.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("err(S 3) = %v", got)
	}
	if got := d.ErrorProb(atomS(4)); got.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("err(S 4) = %v (decimal probability)", got)
	}
	if got := d.ErrorProb(atomE(0, 1)); got.Sign() != 0 {
		t.Errorf("err(E 0 1) = %v, want 0", got)
	}
}

func TestParseDBErrors(t *testing.T) {
	cases := map[string]string{
		"no universe":         "rel S/1\nS 0\n",
		"dup universe":        "universe 2\nuniverse 3\n",
		"bad universe":        "universe x\n",
		"bad rel":             "universe 2\nrel S\n",
		"bad arity":           "universe 2\nrel S/x\n",
		"dup rel":             "universe 2\nrel S/1\nrel S/2\n",
		"unknown rel fact":    "universe 2\nX 0\n",
		"short fact":          "universe 2\nrel E/2\nE 0\n",
		"bad element":         "universe 2\nrel S/1\nS x\n",
		"element range":       "universe 2\nrel S/1\nS 5\n",
		"bad prob":            "universe 2\nrel S/1\nS 0 err nope\n",
		"prob out of range":   "universe 2\nrel S/1\nS 0 err 3/2\n",
		"trailing tokens":     "universe 2\nrel S/1\nS 0 extra\n",
		"rel after facts":     "universe 2\nrel S/1\nS 0\nrel T/1\n",
		"const after facts":   "universe 2\nrel S/1\nS 0\nconst c 0\n",
		"bad const":           "universe 2\nconst c x\nrel S/1\n",
		"universe size limit": "universe -1\n",
	}
	for name, src := range cases {
		if _, err := ParseDB(strings.NewReader(src)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 25; iter++ {
		d := testDB(rng, 4, 1+rng.Intn(5))
		var buf bytes.Buffer
		if err := WriteDB(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := ParseDB(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: reparse: %v\n%s", iter, err, buf.String())
		}
		if !back.A.Equal(d.A) {
			t.Fatalf("iter %d: observed database changed:\n%v\n%v", iter, d.A, back.A)
		}
		// Same error probabilities on every ground atom.
		d.A.ForEachGroundAtom(func(a rel.GroundAtom) bool {
			if d.ErrorProb(a).Cmp(back.ErrorProb(a)) != 0 {
				t.Fatalf("iter %d: err(%v) changed", iter, a)
			}
			return true
		})
	}
}

func TestCodecSureFlipRoundTrip(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	d := New(s)
	d.MustSetError(atomS(1), big.NewRat(1, 1))
	var buf bytes.Buffer
	if err := WriteDB(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ParseDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ErrorProb(atomS(1)); got.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("mu=1 atom lost: %v", got)
	}
}

// TestParseDBMemoryFollowsText: declarations alone cannot make a
// database large. A text declaring a thousand binary relations over
// 2 048 elements — a 512 KiB bitset each, were they laid out densely
// from the start — parses, and it and its world buffer allocate a
// small multiple of the text's own size.
func TestParseDBMemoryFollowsText(t *testing.T) {
	var b strings.Builder
	b.WriteString("universe 2048\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "rel R%d/2\n", i)
	}
	b.WriteString("R0 1 2 err 1/2\nR999 2047 0 absent err 1/3\n")
	text := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := ParseDB(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	buf := d.NewWorldBuf()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(text)); got > bound {
		t.Errorf("parsing %d bytes and one world buffer allocated %d bytes, want at most %d", len(text), got, bound)
	}
	if d.NumUncertain() != 2 || !buf.Load([]uint64{1, 1}, 0).Holds("R999", rel.Tuple{2047, 0}) {
		t.Error("the parsed database lost its facts")
	}
}
