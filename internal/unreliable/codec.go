package unreliable

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

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
//
// A database parsed from text costs about what its text does: a fact
// line allocates its line string and, when it carries an error
// probability, the DB's own copy of it. The parser splits each line
// into one reused token slice, decodes a fact's elements into one
// reused tuple (the structure and μ keep only its rank or key), and
// reads a "p/q" of small decimal parts into one reused rational; any
// other probability takes big.Rat.SetString's general parse.

// ParseDB reads an unreliable database in the text format.
func ParseDB(r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024)
	voc := &rel.Vocabulary{}
	var (
		db   *DB
		n    = -1
		line int
		// Reused across lines; see the header comment.
		fields []string
		tup    rel.Tuple
		prob   big.Rat
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
		fields = appendFields(fields[:0], text)
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
			if cap(tup) < sym.Arity {
				tup = make(rel.Tuple, sym.Arity)
			}
			tup = tup[:sym.Arity]
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
			hasErr := len(rest) >= 2 && rest[0] == "err"
			if hasErr {
				if !ParseProb(&prob, rest[1]) {
					return nil, fmt.Errorf("unreliable: line %d: bad probability %q", line, rest[1])
				}
				rest = rest[2:]
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("unreliable: line %d: trailing tokens %v", line, rest)
			}
			// The symbol's own name, so that μ's keys do not hold on to
			// the line.
			if present {
				if err := db.A.Add(sym.Name, tup); err != nil {
					return nil, fmt.Errorf("unreliable: line %d: %w", line, err)
				}
			}
			if hasErr {
				if err := db.SetError(rel.GroundAtom{Rel: sym.Name, Args: tup}, &prob); err != nil {
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

// appendFields appends the fields of s to dst as strings.Fields splits
// them. Space, tab, CR and LF are split on here; a line holding \v, \f
// or a non-ASCII byte, which strings.Fields may also count as space,
// is left to strings.Fields.
func appendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '\t', '\r', '\n':
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		case '\v', '\f':
			return strings.Fields(s)
		default:
			if c >= utf8.RuneSelf {
				return strings.Fields(s)
			}
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// ParseProb sets z to the probability text s as z.SetString(s) would
// and reports whether s parses; ParseDB and the store's μ records read
// through it. A "p/q" or "p" of plain decimal parts of at most 18
// digits — what WriteDB and the store write — is reduced in int64s and
// stored in z's own words, so a z reused across calls allocates
// nothing. Anything else, from decimals and exponents to base
// prefixes, long numbers and q = 0, goes through SetString.
func ParseProb(z *big.Rat, s string) bool {
	numText, denText, isFrac := strings.Cut(s, "/")
	num, ok := smallDecimal(numText, true)
	den := int64(1)
	if ok && isFrac {
		den, ok = smallDecimal(denText, false)
		ok = ok && den != 0
	}
	if !ok {
		_, ok = z.SetString(s)
		return ok
	}
	a, b := num, den // gcd(|num|, den)
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	// SetInt64 gives z a denominator of 1, so Denom is z's own.
	z.SetInt64(num / a)
	z.Denom().SetInt64(den / a)
	return true
}

// smallDecimal parses s as a decimal integer of at most 18 digits, so
// that it fits an int64, with an optional sign when signed. It refuses
// a leading zero before another digit, and so every string that
// SetString's base-0 parse reads other than in plain decimal ("010" is
// octal there).
func smallDecimal(s string, signed bool) (int64, bool) {
	neg := false
	if signed && s != "" && (s[0] == '+' || s[0] == '-') {
		neg, s = s[0] == '-', s[1:]
	}
	if s == "" || len(s) > 18 || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
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
