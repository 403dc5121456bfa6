package metafinite

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses an aggregate term in the concrete syntax produced by
// Term.String:
//
//	term     := sum ( ('+'|'-') sum )*          (left associative)
//	sum      := factor ( '*' factor )*
//	factor   := number | rational               e.g. 3, 3/2
//	          | ident '(' foterm, ... ')'       function application
//	          | AGG '_' var '(' term ')'        sum_x(...), avg_y(...)
//	          | 'min'|'max' '(' term ',' term ')'
//	          | '[' term ('='|'<') term ']'     characteristic functions
//	          | '(' term ')'
//	foterm   := ident | number | '#' number     variable / element
//
// where AGG ∈ {sum, prod, min, max, avg, count}. An identifier of the
// form agg_v followed by '(' is always read as an aggregate binding v.
func Parse(src string) (Term, error) {
	toks, err := lexTerm(src)
	if err != nil {
		return nil, err
	}
	p := &termParser{toks: toks}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("metafinite: unexpected %q at end of term", p.toks[p.pos].text)
	}
	return t, nil
}

type mtok struct {
	kind string // ident number ( ) [ ] , + - * / = < #
	text string
	pos  int
}

func lexTerm(src string) ([]mtok, error) {
	var toks []mtok
	i := 0
	single := map[byte]string{
		'(': "(", ')': ")", '[': "[", ']': "]", ',': ",",
		'+': "+", '-': "-", '*': "*", '/': "/", '=': "=", '<': "<", '#': "#",
	}
	for i < len(src) {
		c := src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case single[c] != "":
			toks = append(toks, mtok{single[c], string(c), i})
			i++
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, mtok{"number", src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, mtok{"ident", src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("metafinite: position %d: unexpected character %q", i, rune(c))
		}
	}
	return toks, nil
}

type termParser struct {
	toks []mtok
	pos  int
}

func (p *termParser) peek() (mtok, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return mtok{}, false
}

func (p *termParser) accept(kind string) bool {
	if t, ok := p.peek(); ok && t.kind == kind {
		p.pos++
		return true
	}
	return false
}

func (p *termParser) expect(kind string) (mtok, error) {
	if t, ok := p.peek(); ok {
		if t.kind == kind {
			p.pos++
			return t, nil
		}
		return mtok{}, fmt.Errorf("metafinite: position %d: expected %q, found %q", t.pos, kind, t.text)
	}
	return mtok{}, fmt.Errorf("metafinite: expected %q, found end of input", kind)
}

func (p *termParser) parseTerm() (Term, error) {
	left, err := p.parseProduct()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept("+") {
			right, err := p.parseProduct()
			if err != nil {
				return nil, err
			}
			left = Add{L: left, R: right}
			continue
		}
		if p.accept("-") {
			right, err := p.parseProduct()
			if err != nil {
				return nil, err
			}
			left = Sub{L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *termParser) parseProduct() (Term, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.accept("*") {
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = Mul{L: left, R: right}
	}
	return left, nil
}

// aggOf maps an identifier like "sum_x" to its constructor and bound
// variable.
func aggOf(word string) (func(v string, body Term) Term, string, bool) {
	base, v, ok := strings.Cut(word, "_")
	if !ok || v == "" {
		return nil, "", false
	}
	switch base {
	case "sum":
		return func(v string, b Term) Term { return SumAgg{Var: v, Body: b} }, v, true
	case "prod":
		return func(v string, b Term) Term { return ProdAgg{Var: v, Body: b} }, v, true
	case "min":
		return func(v string, b Term) Term { return MinAgg{Var: v, Body: b} }, v, true
	case "max":
		return func(v string, b Term) Term { return MaxAgg{Var: v, Body: b} }, v, true
	case "avg":
		return func(v string, b Term) Term { return AvgAgg{Var: v, Body: b} }, v, true
	case "count":
		return func(v string, b Term) Term { return CountAgg{Var: v, Body: b} }, v, true
	default:
		return nil, "", false
	}
}

func (p *termParser) parseFactor() (Term, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("metafinite: unexpected end of term")
	}
	switch t.kind {
	case "number":
		p.pos++
		num, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metafinite: bad number %q", t.text)
		}
		if p.accept("/") {
			den, err := p.expect("number")
			if err != nil {
				return nil, err
			}
			d, err := strconv.ParseInt(den.text, 10, 64)
			if err != nil || d == 0 {
				return nil, fmt.Errorf("metafinite: bad denominator %q", den.text)
			}
			return Num{V: big.NewRat(num, d)}, nil
		}
		return Num{V: big.NewRat(num, 1)}, nil
	case "(":
		p.pos++
		inner, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case "[":
		p.pos++
		left, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		isEq := p.accept("=")
		if !isEq {
			if _, err := p.expect("<"); err != nil {
				return nil, err
			}
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		if isEq {
			return CharEq{L: left, R: right}, nil
		}
		return CharLess{L: left, R: right}, nil
	case "ident":
		p.pos++
		// min(a, b) / max(a, b) binary forms.
		if t.text == "min" || t.text == "max" {
			if _, err := p.expect("("); err != nil {
				return nil, err
			}
			a, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(","); err != nil {
				return nil, err
			}
			b, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			if t.text == "min" {
				return Min2{L: a, R: b}, nil
			}
			return Max2{L: a, R: b}, nil
		}
		// Aggregates: agg_v(term).
		if mk, v, ok := aggOf(t.text); ok {
			if next, has := p.peek(); has && next.kind == "(" {
				p.pos++
				body, err := p.parseTerm()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(")"); err != nil {
					return nil, err
				}
				return mk(v, body), nil
			}
		}
		// Function application.
		if _, err := p.expect("("); err != nil {
			return nil, fmt.Errorf("metafinite: position %d: %q is not a number, aggregate, or function application", t.pos, t.text)
		}
		app := FApp{Fn: t.text}
		if p.accept(")") {
			return app, nil
		}
		for {
			fo, err := p.parseFOTerm()
			if err != nil {
				return nil, err
			}
			app.Args = append(app.Args, fo)
			if p.accept(",") {
				continue
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return app, nil
		}
	default:
		return nil, fmt.Errorf("metafinite: position %d: unexpected %q", t.pos, t.text)
	}
}

func (p *termParser) parseFOTerm() (FOTerm, error) {
	if p.accept("#") {
		n, err := p.expect("number")
		if err != nil {
			return FOTerm{}, err
		}
		e, err := strconv.Atoi(n.text)
		if err != nil {
			return FOTerm{}, fmt.Errorf("metafinite: bad element %q", n.text)
		}
		return elem(e), nil
	}
	if t, ok := p.peek(); ok && t.kind == "number" {
		p.pos++
		e, err := strconv.Atoi(t.text)
		if err != nil {
			return FOTerm{}, fmt.Errorf("metafinite: bad element %q", t.text)
		}
		return elem(e), nil
	}
	t, err := p.expect("ident")
	if err != nil {
		return FOTerm{}, err
	}
	return V(t.text), nil
}
