package unreliable

import (
	"bytes"
	"math/big"
	"strings"
	"testing"
)

// FuzzParseDB checks that the database codec never panics, that
// ParseDB agrees with parseDBReference — the same error text or the
// same database, μ and written text — and that anything that parses
// also writes back out and reparses to an equivalent database.
func FuzzParseDB(f *testing.F) {
	const digits30 = "123456789012345678901234567890"
	seeds := []string{
		sampleDB,
		"universe 2\nrel S/1\nS 0 err 1/2\n",
		"universe 0\n",
		"universe 3\nrel E/2\nE 0 1 absent err 1\n",
		"rel S/1\n",
		"universe x\n",
		"universe 2\nrel S/1\nS 0 err 3/2\n",
		// Separators strings.Fields splits on, ASCII and not.
		"universe\t3\r\nrel\tE/2\r\nE 0\t1 err\t1/4\r\n",
		"universe 3\nrel E/2\nE\v0 1\fabsent err 1/3\n",
		"universe 3\nrel E/2\nE\u00a00 1 err\u00851/3\n",
		// Probabilities on and off the p/q fast path.
		"universe 4\nrel S/1\nS 0 err 0.25\nS 1 err 1e-1\nS 2 err +1/2\nS 3 absent err 2/2\n",
		"universe 2\nrel S/1\nS 0 err -1/2\n",
		"universe 2\nrel S/1\nS 0 err 1/0\n",
		"universe 2\nrel S/1\nS 0 err 0/5\nS 1 absent err 010/16\n",
		"universe 2\nrel S/1\nS 0 err 1_0/30\nS 1 err 0x1/0b11\n",
		"universe 2\nrel S/1\nS 0 err 1/" + digits30 + "\nS 1 absent err " + digits30 + "/" + digits30 + "1\n",
		"universe 2\nrel S/1\nS 0 err 999999999999999999/1000000000000000000\nS 1 err 1/9999999999999999999\n",
		// A repeated atom: the last line's μ holds.
		"universe 2\nrel E/2\nE 0 1 err 1/3\nE 0 1 err 1/5\nE 0 1 absent err 1/7\n",
		"universe 2\nrel S/1\nS 0 err 1/2\nS 0 err 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db, err := ParseDB(strings.NewReader(src))
		ref, refErr := parseDBReference(strings.NewReader(src))
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("ParseDB: %v\nreference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !db.A.Equal(ref.A) || db.NumUncertain() != ref.NumUncertain() || len(db.mu) != len(ref.mu) {
			t.Fatal("ParseDB and the reference build different databases")
		}
		for k, p := range ref.mu {
			if q := db.ErrorProb(k.Atom()); q.Cmp(p) != 0 {
				t.Fatalf("ErrorProb(%v) = %v, reference %v", k, q, p)
			}
		}
		var buf, refBuf bytes.Buffer
		if err := WriteDB(&buf, db); err != nil {
			t.Fatalf("WriteDB of parsed input failed: %v", err)
		}
		if err := WriteDB(&refBuf, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
			t.Fatalf("ParseDB writes\n%s\nthe reference\n%s", buf.String(), refBuf.String())
		}
		back, err := ParseDB(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip does not reparse: %v\n%s", err, buf.String())
		}
		if !back.A.Equal(db.A) {
			t.Fatal("round trip changed the observed database")
		}
	})
}

// FuzzParseProb holds ParseProb to big.Rat.SetString on any text: the
// same verdict and, when it parses, the same value, into a rational
// reused across calls.
func FuzzParseProb(f *testing.F) {
	for _, s := range []string{
		"1/2", "0", "1", "+1/2", "-1/2", "-0/5", "2/2", "6/4", "0/5", "1/0", "00", "010/3", "3/010",
		"1_0/3", "0x1/2", "1/0b11", "0.25", "1e-1", "", "/", "1/", "/2", "1/2/3", "1/+2", "1 /2",
		"999999999999999999/1000000000000000000", "9999999999999999999/10000000000000000000",
		"-999999999999999999", "123456789012345678901234567890/1234567890123456789012345678901",
	} {
		f.Add(s)
	}
	var z big.Rat
	f.Fuzz(func(t *testing.T, s string) {
		want, wantOK := new(big.Rat).SetString(s)
		if ok := ParseProb(&z, s); ok != wantOK {
			t.Fatalf("ParseProb(%q) parses: %v, SetString: %v", s, ok, wantOK)
		}
		if wantOK && (z.Cmp(want) != 0 || z.String() != want.String()) {
			t.Fatalf("ParseProb(%q) = %v, SetString %v", s, &z, want)
		}
	})
}
