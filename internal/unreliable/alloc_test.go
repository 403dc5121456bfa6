package unreliable

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"qrel/internal/rel"
)

// servedDB is the shape of the served quantifier-free instance: a
// graph over n elements with about 30 % of the edges and half of the
// labels observed, an error probability of 1/10 to 4/10 on every fourth
// (i, j) pair and on every even label.
func servedDB(rng *rand.Rand, n int) *DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	d := New(s)
	frac := func() *big.Rat { return big.NewRat(int64(1+rng.Intn(4)), 10) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				s.MustAdd("E", i, j)
			}
			if (i*n+j)%4 == 0 {
				d.MustSetError(atomE(i, j), frac())
			}
		}
		if rng.Float64() < 0.5 {
			s.MustAdd("S", i)
		}
		if i%2 == 0 {
			d.MustSetError(atomS(i), frac())
		}
	}
	return d
}

// servedText is servedDB's text and its number of fact lines.
func servedText(n int) (string, int) {
	var b bytes.Buffer
	if err := WriteDB(&b, servedDB(rand.New(rand.NewSource(20)), n)); err != nil {
		panic(err)
	}
	facts := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "E ") || strings.HasPrefix(line, "S ") {
			facts++
		}
	}
	return b.String(), facts
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestParseDBAllocsPerFact is the allocation gate of the parser: a fact
// line costs its line string and, when it carries an error probability,
// the owned copy of that probability — not a field slice, a tuple and a
// rational per line.
func TestParseDBAllocsPerFact(t *testing.T) {
	const maxPerFact = 5
	for _, n := range []int{40, 80} {
		text, facts := servedText(n)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ParseDB(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		per := allocs / float64(facts)
		t.Logf("n = %d: %.2f allocations per fact line", n, per)
		if per > maxPerFact {
			t.Errorf("n = %d: ParseDB allocates %.1f times per fact line (%d lines), want at most %d", n, per, facts, maxPerFact)
		}
	}
}

// TestColdSnapshotAllocsPerAtom is the allocation gate of a cold
// snapshot: the first RelFlips, WeightsOverLCM and Nu on a freshly
// parsed database build the atom lists, the flip indexes, both weight
// tables and ν from slabs, so they allocate a bounded number of times
// per uncertain atom whatever the database's size.
func TestColdSnapshotAllocsPerAtom(t *testing.T) {
	const (
		maxPerAtom = 6
		runs       = 5
	)
	for _, n := range []int{40, 80} {
		text, _ := servedText(n)
		var total uint64
		u := 0
		for r := 0; r < runs; r++ {
			d, err := ParseDB(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			u = d.NumUncertain()
			atom := atomE(0, 0) // uncertain: (0·n + 0) mod 4 = 0
			total += mallocs(func() {
				d.RelFlips("E")
				d.RelFlips("S")
				d.WeightsOverLCM()
				d.Nu(atom)
			})
		}
		per := float64(total) / float64(runs*u)
		t.Logf("n = %d: %.2f allocations per uncertain atom", n, per)
		if per > maxPerAtom {
			t.Errorf("n = %d: a cold snapshot allocates %.1f times per uncertain atom (u = %d), want at most %d", n, per, u, maxPerAtom)
		}
	}
}

// TestMuFloatMatchesRatFloat64: the snapshot's float μ, a quotient of
// two float64s when both parts of μ are below 2^53, is Rat.Float64's
// correctly rounded value bit for bit — over the generated instances
// and over parts at and around 2^53.
func TestMuFloatMatchesRatFloat64(t *testing.T) {
	check := func(p *big.Rat) {
		t.Helper()
		want, _ := p.Float64()
		if got := muFloat(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("muFloat(%v) = %v, Rat.Float64 %v", p, got, want)
		}
	}
	rng := rand.New(rand.NewSource(48))
	for iter := 0; iter < 50; iter++ {
		d := testDB(rng, 6, 1+rng.Intn(12))
		for _, e := range d.atoms().uncertain {
			check(e.mu)
			if math.Float64bits(e.muF) != math.Float64bits(muFloat(e.mu)) {
				t.Fatalf("snapshot muF of %v is %v", e.mu, e.muF)
			}
		}
	}
	const two53 = int64(1) << 53
	for _, den := range []int64{two53 - 3, two53 - 1, two53, two53 + 1, two53 + 3, 3 * two53, math.MaxInt64} {
		for _, num := range []int64{1, 2, 3, two53 / 3, two53 - 1, two53 - 2, den / 2, den/2 + 1, den - 1} {
			if num > 0 && num < den {
				check(big.NewRat(num, den))
			}
		}
	}
	for _, num := range []int64{1, 7, 1<<52 + 1, two53 - 1} {
		for d := int64(0); d < 64; d++ {
			check(big.NewRat(num, two53-1-2*d))
		}
	}
	big30, _ := new(big.Rat).SetString("123456789012345678901234567890/987654321098765432109876543211")
	check(big30)
}

// BenchmarkParseDB parses the served 40-element graph's text.
func BenchmarkParseDB(b *testing.B) {
	text, _ := servedText(40)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDB(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
