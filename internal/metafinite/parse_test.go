package metafinite

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want *big.Rat // evaluated on salaryDB with empty env
	}{
		{"7", big.NewRat(7, 1)},
		{"3/2", big.NewRat(3, 2)},
		{"1 + 2 * 3", big.NewRat(7, 1)},
		{"(1 + 2) * 3", big.NewRat(9, 1)},
		{"10 - 4 - 3", big.NewRat(3, 1)}, // left associative
		{"salary(#1)", big.NewRat(200, 1)},
		{"salary(1)", big.NewRat(200, 1)}, // bare number element
		{"min(3, 4) + max(3, 4)", big.NewRat(7, 1)},
		{"[1 = 1] + [2 < 1]", big.NewRat(1, 1)},
		{"sum_x(salary(x))", big.NewRat(600, 1)},
		{"avg_x(salary(x))", big.NewRat(200, 1)},
		{"count_x([salary(x) < 250])", big.NewRat(2, 1)},
		{"max_x(salary(x)) - min_x(salary(x))", big.NewRat(200, 1)},
		{"prod_x(2)", big.NewRat(8, 1)},
	}
	db := salaryDB()
	for _, c := range cases {
		term, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := term.Eval(db, Env{})
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got.Cmp(c.want) != 0 {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1",
		"[1 = 1",
		"[1 ? 1]",
		"salary(",
		"salary(x))",
		"sum_(salary(x))",
		"3/0",
		"min(1)",
		"@",
		"salary(#x)",
		"unknownword",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// randTerm builds a random term over salary/1 with variables from
// scope.
func randTerm(rng *rand.Rand, depth int, scope []string) Term {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			return NumInt(int64(rng.Intn(20)))
		case 1:
			return Num{V: big.NewRat(int64(1+rng.Intn(9)), int64(1+rng.Intn(9)))}
		default:
			if len(scope) == 0 {
				return FApp{Fn: "salary", Args: []FOTerm{elem(rng.Intn(3))}}
			}
			return FApp{Fn: "salary", Args: []FOTerm{V(scope[rng.Intn(len(scope))])}}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return Add{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	case 1:
		return Sub{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	case 2:
		return Mul{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	case 3:
		return Min2{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	case 4:
		return CharEq{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	case 5:
		return CharLess{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	case 6:
		v := "v" + string(rune('a'+len(scope)))
		inner := randTerm(rng, depth-1, append(scope, v))
		switch rng.Intn(4) {
		case 0:
			return SumAgg{Var: v, Body: inner}
		case 1:
			return MinAgg{Var: v, Body: inner}
		case 2:
			return AvgAgg{Var: v, Body: inner}
		default:
			return CountAgg{Var: v, Body: inner}
		}
	default:
		return Max2{randTerm(rng, depth-1, scope), randTerm(rng, depth-1, scope)}
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// Property: Parse(term.String()) evaluates identically.
	rng := rand.New(rand.NewSource(21))
	db := salaryDB()
	for iter := 0; iter < 120; iter++ {
		term := randTerm(rng, 3, nil)
		src := term.String()
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("iter %d: Parse(%q): %v", iter, src, err)
		}
		want, err := term.Eval(db, Env{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Eval(db, Env{})
		if err != nil {
			t.Fatalf("iter %d: Eval(reparsed %q): %v", iter, src, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("iter %d: round trip changed value of %q: %v vs %v", iter, src, got, want)
		}
	}
}

func TestParsedAggregateReliability(t *testing.T) {
	// End to end: parse an aggregate query and compute its reliability.
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 2), w(150, 1, 2)})
	term := mustParse("sum_x(salary(x))")
	res, err := WorldEnum(bg, u, term, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("H = %v, want 1/2", res.H)
	}
}

// mustParse is Parse that panics on error.
func mustParse(src string) Term {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}
