package prop

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a DIMACS-style text codec for DNF (and CNF)
// formulas, used by the command-line tools. The format mirrors DIMACS
// CNF: a header "p dnf <vars> <terms>" followed by one term per line,
// literals as 1-based integers (negative = negated), terminated by 0.
// Lines starting with 'c' are comments.

// ParseDNF reads a DNF formula in DIMACS-style format.
func ParseDNF(r io.Reader) (DNF, error) {
	return parseDimacs(r, "dnf")
}

// parseCNF reads a CNF formula in DIMACS format and returns it as a CNF.
func parseCNF(r io.Reader) (CNF, error) {
	d, err := parseDimacs(r, "cnf")
	if err != nil {
		return CNF{}, err
	}
	clauses := make([]Clause, len(d.Terms))
	for i, t := range d.Terms {
		clauses[i] = Clause(t)
	}
	return CNF{NumVars: d.NumVars, Clauses: clauses}, nil
}

func parseDimacs(r io.Reader, kind string) (DNF, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		d         DNF
		gotHeader bool
		declared  int
		cur       Term
		line      int
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		if strings.HasPrefix(text, "p") {
			if gotHeader {
				return DNF{}, fmt.Errorf("prop: line %d: duplicate header", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != kind {
				return DNF{}, fmt.Errorf("prop: line %d: want header %q, got %q", line, "p "+kind+" <vars> <terms>", text)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nt, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 || nt < 0 {
				return DNF{}, fmt.Errorf("prop: line %d: bad header numbers %q", line, text)
			}
			d.NumVars = nv
			declared = nt
			gotHeader = true
			continue
		}
		if !gotHeader {
			return DNF{}, fmt.Errorf("prop: line %d: literal data before header", line)
		}
		for _, f := range strings.Fields(text) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return DNF{}, fmt.Errorf("prop: line %d: bad literal %q", line, f)
			}
			if v == 0 {
				d.Terms = append(d.Terms, cur)
				cur = nil
				continue
			}
			neg := v < 0
			if neg {
				v = -v
			}
			if v > d.NumVars {
				return DNF{}, fmt.Errorf("prop: line %d: variable %d exceeds declared count %d", line, v, d.NumVars)
			}
			cur = append(cur, Lit{Var: v - 1, Neg: neg})
		}
	}
	if err := sc.Err(); err != nil {
		return DNF{}, fmt.Errorf("prop: reading dimacs: %w", err)
	}
	if !gotHeader {
		return DNF{}, fmt.Errorf("prop: missing header")
	}
	if len(cur) > 0 {
		return DNF{}, fmt.Errorf("prop: unterminated final term (missing 0)")
	}
	if declared != len(d.Terms) {
		return DNF{}, fmt.Errorf("prop: header declares %d terms, found %d", declared, len(d.Terms))
	}
	return d, nil
}

// writeDNF writes the formula in DIMACS-style DNF format.
func writeDNF(w io.Writer, d DNF) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p dnf %d %d\n", d.NumVars, len(d.Terms))
	for _, t := range d.Terms {
		for _, l := range t {
			v := l.Var + 1
			if l.Neg {
				v = -v
			}
			fmt.Fprintf(bw, "%d ", v)
		}
		fmt.Fprintln(bw, 0)
	}
	return bw.Flush()
}
