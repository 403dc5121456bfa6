package prop

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseDNF checks the DIMACS codec never panics and round-trips.
func FuzzParseDNF(f *testing.F) {
	seeds := []string{
		"p dnf 3 2\n1 -2 0\n3 0\n",
		"p dnf 0 0\n",
		"c comment\np dnf 2 1\n-1 -2 0\n",
		"p dnf 2 1\n9 0\n",
		"1 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDNF(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeDNF(&buf, d); err != nil {
			t.Fatalf("writeDNF failed: %v", err)
		}
		back, err := ParseDNF(&buf)
		if err != nil {
			t.Fatalf("round trip does not reparse: %v", err)
		}
		if back.NumVars != d.NumVars || len(back.Terms) != len(d.Terms) {
			t.Fatal("round trip changed shape")
		}
	})
}
