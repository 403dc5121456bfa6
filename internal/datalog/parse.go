package datalog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// parse parses a Datalog program:
//
//	% reachability over uncertain edges
//	Reach(x,y) :- E(x,y).
//	Reach(x,z) :- Reach(x,y), E(y,z).
//	Blocked(x) :- Node(x), not Reach(0,x).
//
// One rule per '.'; '%' starts a comment to end of line; numbers are
// universe elements; identifiers are variables inside rules (predicates
// are the names applied to argument lists). Facts (empty bodies) are
// allowed but must be ground.
func parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for !p.eof() {
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("datalog: empty program")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is parse that panics on error.
func MustParse(src string) *Program {
	p, err := parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type dtok struct {
	kind string // ident number ( ) , . :- not
	text string
	pos  int
}

func lex(src string) ([]dtok, error) {
	var toks []dtok
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '%':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(':
			toks = append(toks, dtok{"(", "(", i})
			i++
		case c == ')':
			toks = append(toks, dtok{")", ")", i})
			i++
		case c == ',':
			toks = append(toks, dtok{",", ",", i})
			i++
		case c == '.':
			toks = append(toks, dtok{".", ".", i})
			i++
		case c == ':':
			if strings.HasPrefix(src[i:], ":-") {
				toks = append(toks, dtok{":-", ":-", i})
				i += 2
			} else {
				return nil, fmt.Errorf("datalog: position %d: stray ':'", i)
			}
		case unicode.IsDigit(c):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, dtok{"number", src[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			if word == "not" {
				toks = append(toks, dtok{"not", word, i})
			} else {
				toks = append(toks, dtok{"ident", word, i})
			}
			i = j
		default:
			return nil, fmt.Errorf("datalog: position %d: unexpected character %q", i, c)
		}
	}
	return toks, nil
}

type parser struct {
	toks []dtok
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) expect(kind string) (dtok, error) {
	if p.eof() {
		return dtok{}, fmt.Errorf("datalog: unexpected end of program, expected %s", kind)
	}
	t := p.toks[p.pos]
	if t.kind != kind {
		return dtok{}, fmt.Errorf("datalog: position %d: expected %s, found %q", t.pos, kind, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) accept(kind string) bool {
	if !p.eof() && p.toks[p.pos].kind == kind {
		p.pos++
		return true
	}
	return false
}

func (p *parser) rule() (Rule, error) {
	head, err := p.atom()
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	if p.accept(":-") {
		for {
			neg := p.accept("not")
			a, err := p.atom()
			if err != nil {
				return Rule{}, err
			}
			r.Body = append(r.Body, Literal{Atom: a, Negated: neg})
			if !p.accept(",") {
				break
			}
		}
	} else {
		// A fact: must be ground.
		for _, t := range head.Args {
			if t.IsVar() {
				return Rule{}, fmt.Errorf("datalog: fact %s must be ground", head)
			}
		}
	}
	if _, err := p.expect("."); err != nil {
		return Rule{}, err
	}
	return r, nil
}

func (p *parser) atom() (Atom, error) {
	name, err := p.expect("ident")
	if err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: name.text}
	if _, err := p.expect("("); err != nil {
		return Atom{}, err
	}
	if p.accept(")") {
		return a, nil
	}
	for {
		if p.eof() {
			return Atom{}, fmt.Errorf("datalog: unexpected end of program inside %s(...)", a.Pred)
		}
		t := p.toks[p.pos]
		switch t.kind {
		case "ident":
			a.Args = append(a.Args, V(t.text))
			p.pos++
		case "number":
			e, err := strconv.Atoi(t.text)
			if err != nil {
				return Atom{}, fmt.Errorf("datalog: bad element %q", t.text)
			}
			a.Args = append(a.Args, E(e))
			p.pos++
		default:
			return Atom{}, fmt.Errorf("datalog: position %d: expected term, found %q", t.pos, t.text)
		}
		if p.accept(",") {
			continue
		}
		if _, err := p.expect(")"); err != nil {
			return Atom{}, err
		}
		return a, nil
	}
}
