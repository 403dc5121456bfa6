package unreliable

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"qrel/internal/rel"
)

// This file implements a line-oriented text format for unreliable
// databases, used by the command-line tools and examples:
//
//	# comment
//	universe 5
//	rel E/2
//	rel S/1
//	const c 0
//	E 0 1                  # observed fact, certain
//	E 1 2 err 1/10         # observed fact, error probability 1/10
//	S 3 absent err 1/2     # non-fact with error probability 1/2
//
// Lines are independent; "universe" must precede relations' facts and
// "rel" declarations must precede their use. Probabilities are exact
// rationals "p/q" or decimal strings accepted by big.Rat.SetString.

// ParseDB reads an unreliable database in the text format.
func ParseDB(r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	voc := &rel.Vocabulary{}
	var (
		db   *DB
		n    = -1
		line int
	)
	type constDecl struct {
		name string
		elem int
	}
	var consts []constDecl
	ensureDB := func() error {
		if db != nil {
			return nil
		}
		if n < 0 {
			return fmt.Errorf("unreliable: line %d: universe size not declared", line)
		}
		s, err := rel.NewStructure(n, voc)
		if err != nil {
			return err
		}
		for _, c := range consts {
			if err := s.SetConst(c.name, c.elem); err != nil {
				return err
			}
		}
		db = New(s)
		return nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "universe":
			if n >= 0 {
				return nil, fmt.Errorf("unreliable: line %d: duplicate universe declaration", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("unreliable: line %d: want 'universe <n>'", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("unreliable: line %d: bad universe size %q", line, fields[1])
			}
			n = v
		case "rel":
			if db != nil {
				return nil, fmt.Errorf("unreliable: line %d: rel declaration after facts", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("unreliable: line %d: want 'rel <Name>/<arity>'", line)
			}
			name, arityStr, ok := strings.Cut(fields[1], "/")
			if !ok {
				return nil, fmt.Errorf("unreliable: line %d: want 'rel <Name>/<arity>'", line)
			}
			arity, err := strconv.Atoi(arityStr)
			if err != nil {
				return nil, fmt.Errorf("unreliable: line %d: bad arity %q", line, arityStr)
			}
			if err := voc.AddRel(rel.RelSym{Name: name, Arity: arity}); err != nil {
				return nil, fmt.Errorf("unreliable: line %d: %w", line, err)
			}
		case "const":
			if db != nil {
				return nil, fmt.Errorf("unreliable: line %d: const declaration after facts", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("unreliable: line %d: want 'const <name> <elem>'", line)
			}
			e, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("unreliable: line %d: bad element %q", line, fields[2])
			}
			if err := voc.AddConst(fields[1]); err != nil {
				return nil, fmt.Errorf("unreliable: line %d: %w", line, err)
			}
			consts = append(consts, constDecl{fields[1], e})
		default:
			sym, ok := voc.Rel(fields[0])
			if !ok {
				return nil, fmt.Errorf("unreliable: line %d: unknown relation %q", line, fields[0])
			}
			if err := ensureDB(); err != nil {
				return nil, err
			}
			rest := fields[1:]
			if len(rest) < sym.Arity {
				return nil, fmt.Errorf("unreliable: line %d: %s needs %d elements", line, sym, sym.Arity)
			}
			tup := make(rel.Tuple, sym.Arity)
			for i := 0; i < sym.Arity; i++ {
				e, err := strconv.Atoi(rest[i])
				if err != nil {
					return nil, fmt.Errorf("unreliable: line %d: bad element %q", line, rest[i])
				}
				tup[i] = e
			}
			rest = rest[sym.Arity:]
			present := true
			if len(rest) > 0 && rest[0] == "absent" {
				present = false
				rest = rest[1:]
			}
			var errProb *big.Rat
			if len(rest) >= 2 && rest[0] == "err" {
				p, ok := new(big.Rat).SetString(rest[1])
				if !ok {
					return nil, fmt.Errorf("unreliable: line %d: bad probability %q", line, rest[1])
				}
				errProb = p
				rest = rest[2:]
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("unreliable: line %d: trailing tokens %v", line, rest)
			}
			if present {
				if err := db.A.Add(fields[0], tup); err != nil {
					return nil, fmt.Errorf("unreliable: line %d: %w", line, err)
				}
			}
			if errProb != nil {
				if err := db.SetError(rel.GroundAtom{Rel: fields[0], Args: tup}, errProb); err != nil {
					return nil, fmt.Errorf("unreliable: line %d: %w", line, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("unreliable: reading database: %w", err)
	}
	if err := ensureDB(); err != nil {
		return nil, err
	}
	return db, nil
}

// WriteDB writes the database in the text format; parsing the output
// reconstructs an equivalent database.
func WriteDB(w io.Writer, d *DB) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "universe %d\n", d.A.N)
	for _, sym := range d.A.Voc.Rels {
		fmt.Fprintf(bw, "rel %s\n", sym)
	}
	constNames := make([]string, 0, len(d.A.Consts))
	for name := range d.A.Consts {
		constNames = append(constNames, name)
	}
	sort.Strings(constNames)
	for _, name := range constNames {
		fmt.Fprintf(bw, "const %s %d\n", name, d.A.Consts[name])
	}
	// Present facts (with error annotation when uncertain).
	for _, sym := range d.A.Voc.Rels {
		for _, tup := range d.A.Rel(sym.Name).Tuples() {
			fmt.Fprintf(bw, "%s%s", sym.Name, elems(tup))
			mu := d.ErrorProb(rel.GroundAtom{Rel: sym.Name, Args: tup})
			if mu.Sign() != 0 {
				fmt.Fprintf(bw, " err %s", mu.RatString())
			}
			fmt.Fprintln(bw)
		}
	}
	// Absent atoms with nonzero error.
	l := d.atoms()
	for _, e := range append(append([]entry{}, l.uncertain...), l.sure...) {
		if d.A.Holds(e.atom.Rel, e.atom.Args) {
			continue
		}
		fmt.Fprintf(bw, "%s%s absent err %s\n", e.atom.Rel, elems(e.atom.Args), e.mu.RatString())
	}
	return bw.Flush()
}

func elems(t rel.Tuple) string {
	var b strings.Builder
	for _, e := range t {
		fmt.Fprintf(&b, " %d", e)
	}
	return b.String()
}
