package prop

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestParseDNFBasic(t *testing.T) {
	src := `c a comment
p dnf 3 2
1 -2 0
3 0
`
	d, err := ParseDNF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumVars != 3 || len(d.Terms) != 2 {
		t.Fatalf("parsed %v", d)
	}
	if d.Terms[0][0] != Pos(0) || d.Terms[0][1] != Negd(1) || d.Terms[1][0] != Pos(2) {
		t.Errorf("literals wrong: %v", d.Terms)
	}
}

func TestParseDNFErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":    "1 0\n",
		"bad kind":          "p cnf 2 1\n1 0\n",
		"bad var count":     "p dnf x 1\n1 0\n",
		"var out of range":  "p dnf 2 1\n3 0\n",
		"term count wrong":  "p dnf 2 2\n1 0\n",
		"unterminated term": "p dnf 2 1\n1\n",
		"duplicate header":  "p dnf 2 1\np dnf 2 1\n1 0\n",
		"bad literal":       "p dnf 2 1\nzz 0\n",
		"empty input":       "",
	}
	for name, src := range cases {
		if _, err := ParseDNF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		d := randDNF(rng, 2+rng.Intn(10), 1+rng.Intn(10), 4)
		var buf bytes.Buffer
		if err := writeDNF(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := ParseDNF(&buf)
		if err != nil {
			t.Fatalf("iter %d: reparse: %v\ntext:\n%s", iter, err, buf.String())
		}
		if back.NumVars != d.NumVars || len(back.Terms) != len(d.Terms) {
			t.Fatalf("iter %d: shape changed", iter)
		}
		for i := range d.Terms {
			if len(back.Terms[i]) != len(d.Terms[i]) {
				t.Fatalf("iter %d: term %d changed", iter, i)
			}
			for j := range d.Terms[i] {
				if back.Terms[i][j] != d.Terms[i][j] {
					t.Fatalf("iter %d: literal %d/%d changed", iter, i, j)
				}
			}
		}
	}
}

func TestParseCNF(t *testing.T) {
	src := "p cnf 2 2\n1 2 0\n-1 0\n"
	c, err := parseCNF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVars != 2 || len(c.Clauses) != 2 {
		t.Fatalf("parsed %v", c)
	}
	if !c.Eval([]bool{false, true}) || c.Eval([]bool{true, true}) {
		t.Error("CNF evaluation wrong")
	}
}

func TestCNFNegateAndToDNF(t *testing.T) {
	// (x0 | x1) & (!x0 | x2) over 3 vars.
	c := CNF{NumVars: 3, Clauses: []Clause{
		{Pos(0), Pos(1)},
		{Negd(0), Pos(2)},
	}}
	neg := c.Negate()
	d, err := c.ToDNF(1000)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		a := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		if c.Eval(a) != d.Eval(a) {
			t.Errorf("ToDNF differs at %v", a)
		}
		if c.Eval(a) == neg.Eval(a) {
			t.Errorf("Negate not complementary at %v", a)
		}
	}
	if got := c.String(); got != "(x0 | x1) & (!x0 | x2)" {
		t.Errorf("CNF String = %q", got)
	}
	if (CNF{}).String() != "true" || (Clause{}).String() != "false" {
		t.Error("empty CNF/clause rendering wrong")
	}
}

func TestCNFToDNFBudget(t *testing.T) {
	var c CNF
	c.NumVars = 30
	for i := 0; i < 30; i += 2 {
		c.Clauses = append(c.Clauses, Clause{Pos(i), Pos(i + 1)})
	}
	if _, err := c.ToDNF(50); err == nil {
		t.Error("budget not enforced on CNF distribution")
	}
}
