package datalog

import "testing"

// FuzzParse checks the Datalog parser never panics and that parsed
// programs print/parse stably.
func FuzzParse(f *testing.F) {
	seeds := []string{
		reachProgram,
		"P(x) :- Node(x), not Q(x).\nQ(x) :- Node(x), not P(x).\n",
		"Fact(1).",
		"A(x) :- B(x,",
		"% only a comment",
		"A(x) : B(x).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		p2, err := parse(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\n%s", err, printed)
		}
		if p2.String() != printed {
			t.Fatalf("print/parse unstable")
		}
	})
}
