package unreliable

import (
	"bufio"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"

	"qrel/internal/rel"
)

// parseDBReference is the line parser ParseDB replaced, kept as the
// differential oracle of FuzzParseDB: strings.Fields per line, a fresh
// tuple per fact and big.Rat.SetString per probability. ParseDB must
// accept and refuse the same texts, with the same errors, and build the
// same database.
func parseDBReference(r io.Reader) (*DB, error) {
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
