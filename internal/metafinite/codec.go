package metafinite

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
// functional databases, used by cmd/aggrel:
//
//	# comment
//	universe 4
//	func salary/1
//	func dept/1
//	salary 0 = 100                      # observed value (certain)
//	salary 1 = 200                      # observed value ...
//	salary 1 ~ 200:3/4 250:1/4          # ... with a distribution
//	dept 0 = 2
//
// '=' lines set the observed database; '~' lines set the Definition 6.1
// distribution of a site (probabilities must sum to 1). A '~' line
// without a preceding '=' leaves the observed value at the default 0.

// ParseUDB reads an unreliable functional database in the text format.
func ParseUDB(r io.Reader) (*UDB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		db    *FDB
		u     *UDB
		n     = -1
		syms  []FuncSym
		line  int
		began bool
	)
	ensure := func() error {
		if began {
			return nil
		}
		if n < 0 {
			return fmt.Errorf("metafinite: line %d: universe size not declared", line)
		}
		var err error
		db, err = NewFDB(n, syms...)
		if err != nil {
			return err
		}
		u = NewUDB(db)
		began = true
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
				return nil, fmt.Errorf("metafinite: line %d: duplicate universe declaration", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("metafinite: line %d: want 'universe <n>'", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("metafinite: line %d: bad universe size %q", line, fields[1])
			}
			n = v
		case "func":
			if began {
				return nil, fmt.Errorf("metafinite: line %d: func declaration after values", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("metafinite: line %d: want 'func <name>/<arity>'", line)
			}
			name, arityStr, ok := strings.Cut(fields[1], "/")
			if !ok {
				return nil, fmt.Errorf("metafinite: line %d: want 'func <name>/<arity>'", line)
			}
			arity, err := strconv.Atoi(arityStr)
			if err != nil {
				return nil, fmt.Errorf("metafinite: line %d: bad arity %q", line, arityStr)
			}
			syms = append(syms, FuncSym{Name: name, Arity: arity})
		default:
			if err := ensure(); err != nil {
				return nil, err
			}
			ft, ok := db.Funcs[fields[0]]
			if !ok {
				return nil, fmt.Errorf("metafinite: line %d: unknown function %q", line, fields[0])
			}
			rest := fields[1:]
			if len(rest) < ft.Arity+2 {
				return nil, fmt.Errorf("metafinite: line %d: %s needs %d elements and a value", line, fields[0], ft.Arity)
			}
			args := make(rel.Tuple, ft.Arity)
			for i := 0; i < ft.Arity; i++ {
				e, err := strconv.Atoi(rest[i])
				if err != nil {
					return nil, fmt.Errorf("metafinite: line %d: bad element %q", line, rest[i])
				}
				args[i] = e
			}
			op := rest[ft.Arity]
			vals := rest[ft.Arity+1:]
			switch op {
			case "=":
				if len(vals) != 1 {
					return nil, fmt.Errorf("metafinite: line %d: '=' takes exactly one value", line)
				}
				v, ok := new(big.Rat).SetString(vals[0])
				if !ok {
					return nil, fmt.Errorf("metafinite: line %d: bad value %q", line, vals[0])
				}
				if err := db.SetFRat(fields[0], v, args...); err != nil {
					return nil, fmt.Errorf("metafinite: line %d: %w", line, err)
				}
			case "~":
				var dist []Weighted
				for _, pair := range vals {
					vs, ps, ok := strings.Cut(pair, ":")
					if !ok {
						return nil, fmt.Errorf("metafinite: line %d: want value:prob, got %q", line, pair)
					}
					v, ok1 := new(big.Rat).SetString(vs)
					p, ok2 := new(big.Rat).SetString(ps)
					if !ok1 || !ok2 {
						return nil, fmt.Errorf("metafinite: line %d: bad pair %q", line, pair)
					}
					dist = append(dist, Weighted{Value: v, P: p})
				}
				if err := u.SetDist(Site{Fn: fields[0], Args: args}, dist); err != nil {
					return nil, fmt.Errorf("metafinite: line %d: %w", line, err)
				}
			default:
				return nil, fmt.Errorf("metafinite: line %d: expected '=' or '~', got %q", line, op)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metafinite: reading database: %w", err)
	}
	if err := ensure(); err != nil {
		return nil, err
	}
	return u, nil
}

// writeUDB writes the database in the text format; parsing the output
// reconstructs an equivalent database.
func writeUDB(w io.Writer, u *UDB) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "universe %d\n", u.Obs.N)
	names := make([]string, 0, len(u.Obs.Funcs))
	for name := range u.Obs.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(bw, "func %s/%d\n", name, u.Obs.Funcs[name].Arity)
	}
	for _, name := range names {
		ft := u.Obs.Funcs[name]
		keys := make([]uint64, 0, len(ft.vals))
		for k := range ft.vals {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			args := rel.KeyToTuple(k, ft.Arity)
			fmt.Fprintf(bw, "%s%s = %s\n", name, spaced(args), ft.vals[k].RatString())
		}
	}
	// Distributions in canonical site order.
	siteKeys := make([]rel.AtomKey, 0, len(u.dist))
	for k := range u.dist {
		siteKeys = append(siteKeys, k)
	}
	sort.Slice(siteKeys, func(i, j int) bool {
		if siteKeys[i].Rel != siteKeys[j].Rel {
			return siteKeys[i].Rel < siteKeys[j].Rel
		}
		return siteKeys[i].Tup < siteKeys[j].Tup
	})
	for _, k := range siteKeys {
		s := u.site[k]
		fmt.Fprintf(bw, "%s%s ~", s.Fn, spaced(s.Args))
		for _, c := range u.dist[k] {
			fmt.Fprintf(bw, " %s:%s", c.Value.RatString(), c.P.RatString())
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func spaced(t rel.Tuple) string {
	var b strings.Builder
	for _, e := range t {
		fmt.Fprintf(&b, " %d", e)
	}
	return b.String()
}
