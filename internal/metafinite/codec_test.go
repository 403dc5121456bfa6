package metafinite

import (
	"bytes"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"qrel/internal/rel"
)

const sampleUDB = `
# HR database
universe 3
func salary/1
func dept/1
salary 0 = 100
salary 1 = 200
salary 2 = 300
salary 1 ~ 200:3/4 250:1/4
dept 0 = 1
dept 1 = 1
dept 2 = 2
`

func TestParseUDBBasic(t *testing.T) {
	u, err := ParseUDB(strings.NewReader(sampleUDB))
	if err != nil {
		t.Fatal(err)
	}
	if u.Obs.N != 3 {
		t.Errorf("universe %d", u.Obs.N)
	}
	if got := u.Obs.Funcs["salary"].Get(rel.Tuple{1}); got.Cmp(big.NewRat(200, 1)) != 0 {
		t.Errorf("salary(1) = %v", got)
	}
	d := u.Dist(Site{Fn: "salary", Args: rel.Tuple{1}})
	if len(d) != 2 || d[1].P.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("dist = %v", d)
	}
	if len(u.UncertainSites()) != 1 {
		t.Error("uncertain site count wrong")
	}
	// Reliability end to end from the parsed database.
	term := mustParse("sum_x(salary(x))")
	res, err := WorldEnum(bg, u, term, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("H = %v, want 1/4", res.H)
	}
}

func TestParseUDBErrors(t *testing.T) {
	cases := map[string]string{
		"no universe":       "func f/1\nf 0 = 1\n",
		"dup universe":      "universe 2\nuniverse 3\n",
		"bad universe":      "universe x\n",
		"bad func":          "universe 2\nfunc f\n",
		"bad arity":         "universe 2\nfunc f/x\n",
		"func after values": "universe 2\nfunc f/1\nf 0 = 1\nfunc g/1\n",
		"unknown func":      "universe 2\ng 0 = 1\n",
		"short line":        "universe 2\nfunc f/1\nf 0\n",
		"bad op":            "universe 2\nfunc f/1\nf 0 ? 1\n",
		"two values for =":  "universe 2\nfunc f/1\nf 0 = 1 2\n",
		"bad value":         "universe 2\nfunc f/1\nf 0 = nope\n",
		"bad pair":          "universe 2\nfunc f/1\nf 0 ~ 1\n",
		"bad prob":          "universe 2\nfunc f/1\nf 0 ~ 1:x\n",
		"dist not 1":        "universe 2\nfunc f/1\nf 0 ~ 1:1/2\n",
		"bad element":       "universe 2\nfunc f/1\nf x = 1\n",
		"element range":     "universe 2\nfunc f/1\nf 5 = 1\n",
	}
	for name, src := range cases {
		if _, err := ParseUDB(strings.NewReader(src)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestUDBCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 15; iter++ {
		u := NewUDB(salaryDB())
		for i := 0; i < 3; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			obs := u.Obs.Funcs["salary"].Get(rel.Tuple{i})
			u.MustSetDist(Site{Fn: "salary", Args: rel.Tuple{i}}, []Weighted{
				{Value: obs, P: big.NewRat(2, 3)},
				{Value: new(big.Rat).Add(obs, big.NewRat(int64(1+rng.Intn(50)), 1)), P: big.NewRat(1, 3)},
			})
		}
		var buf bytes.Buffer
		if err := writeUDB(&buf, u); err != nil {
			t.Fatal(err)
		}
		back, err := ParseUDB(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: reparse: %v\n%s", iter, err, buf.String())
		}
		// Same observed values and distributions ⇒ same reliability of a
		// canonical query.
		term := mustParse("sum_x(salary(x)) + max_x(salary(x))")
		r1, err := WorldEnum(bg, u, term, 0)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := WorldEnum(bg, back, term, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r1.H.Cmp(r2.H) != 0 {
			t.Fatalf("iter %d: codec changed reliability: %v vs %v\n%s", iter, r1.H, r2.H, buf.String())
		}
	}
}
