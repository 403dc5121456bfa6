// Package vm compiles grounded propositional formulas to a flat
// bytecode evaluated over bitset worlds, replacing the per-sample AST
// walk (logic.Eval / prop.Formula.Eval) on the sampling hot paths.
//
// A program is a stack machine over uint64 values. In scalar mode each
// value is a single truth bit (full = 1); in batch mode each value
// packs up to 64 sampled worlds, one per bit (full = the low-m-bits
// mask for a batch of m worlds), and one pass over the code evaluates
// all of them. Every operation preserves the invariant that stack
// values are subsets of full, which is what makes the short-circuit
// jumps correct in both modes: a conjunction is settled early only
// when *all* worlds in the batch already falsify it (top == 0), a
// disjunction only when all satisfy it (top == full).
//
// Compilation is one-shot per request: the estimator loops then
// evaluate millions of worlds against the same immutable program, so
// programs are safe for concurrent use by multiple lanes as long as
// each lane brings its own stack (NewStack).
package vm

import (
	"errors"
	"fmt"

	"qrel/internal/prop"
)

// Opcodes of the world VM. Operands are packed 64-world masks; the
// "subset of full" invariant above is what every op maintains.
const (
	opFalse  uint8 = iota // push 0
	opTrue                // push full
	opVar                 // push cols[arg]
	opVarNeg              // push cols[arg] ^ full
	opAnd                 // pop b, a; push a & b
	opOr                  // pop b, a; push a | b
	opNot                 // top ^= full
	opJFK                 // jump to arg if top == 0 (keep top)
	opJTK                 // jump to arg if top == full (keep top)
)

// instr is one instruction; arg is a variable index (opVar, opVarNeg)
// or an absolute jump target (opJFK, opJTK).
type instr struct {
	op  uint8
	arg int32
}

// MaxCode bounds the compiled program size; formulas that exceed it
// fall back to the interpreter rather than degrade cache behavior.
const MaxCode = 1 << 16

// ErrTooLarge reports a formula whose compiled form exceeds MaxCode.
var ErrTooLarge = errors.New("vm: compiled program exceeds size budget")

// Program is an immutable compiled formula over variables
// 0..NumVars-1 (the uncertain-atom index space of the database it was
// compiled against).
type Program struct {
	code     []instr
	numVars  int
	maxStack int
}

// NumVars returns the variable-space size the program indexes into.
func (p *Program) NumVars() int { return p.numVars }

// Len returns the instruction count (diagnostics and tests).
func (p *Program) Len() int { return len(p.code) }

// StackNeed returns the operand-stack depth any evaluation of this
// program requires (at least 1); callers evaluating several programs
// can share one stack sized to the maximum.
func (p *Program) StackNeed() int {
	if p.maxStack < 1 {
		return 1
	}
	return p.maxStack
}

// NewStack allocates an operand stack big enough for any evaluation
// of this program. Stacks are per-goroutine scratch: one per lane.
func (p *Program) NewStack() []uint64 {
	return make([]uint64, p.StackNeed())
}

// EvalBatch evaluates the program over a batch of worlds in column
// layout: cols[v] holds the truth bit of variable v in each of the
// packed worlds, full is the batch mask (bit s set iff world s is
// live, always the low-m-bits mask for a batch of m), and stack is a
// scratch stack from NewStack. Bit s of the result is the formula's
// value in world s. Bits of cols above full must be zero.
func (p *Program) EvalBatch(cols []uint64, full uint64, stack []uint64) uint64 {
	sp := 0
	for pc := 0; pc < len(p.code); pc++ {
		in := p.code[pc]
		switch in.op {
		case opFalse:
			stack[sp] = 0
			sp++
		case opTrue:
			stack[sp] = full
			sp++
		case opVar:
			stack[sp] = cols[in.arg]
			sp++
		case opVarNeg:
			stack[sp] = cols[in.arg] ^ full
			sp++
		case opAnd:
			sp--
			stack[sp-1] &= stack[sp]
		case opOr:
			sp--
			stack[sp-1] |= stack[sp]
		case opNot:
			stack[sp-1] ^= full
		case opJFK:
			if stack[sp-1] == 0 {
				pc = int(in.arg) - 1
			}
		case opJTK:
			if stack[sp-1] == full {
				pc = int(in.arg) - 1
			}
		}
	}
	return stack[0]
}

// EvalWorld evaluates the program against a single world given as a
// bitset over the variable space (bit v of world[v/64] is variable
// v's truth value) — the scalar path for shapes that batch poorly and
// the differential-testing oracle for the batch path.
func (p *Program) EvalWorld(world []uint64, stack []uint64) bool {
	sp := 0
	for pc := 0; pc < len(p.code); pc++ {
		in := p.code[pc]
		switch in.op {
		case opFalse:
			stack[sp] = 0
			sp++
		case opTrue:
			stack[sp] = 1
			sp++
		case opVar:
			stack[sp] = (world[in.arg>>6] >> (uint(in.arg) & 63)) & 1
			sp++
		case opVarNeg:
			stack[sp] = ((world[in.arg>>6] >> (uint(in.arg) & 63)) & 1) ^ 1
			sp++
		case opAnd:
			sp--
			stack[sp-1] &= stack[sp]
		case opOr:
			sp--
			stack[sp-1] |= stack[sp]
		case opNot:
			stack[sp-1] ^= 1
		case opJFK:
			if stack[sp-1] == 0 {
				pc = int(in.arg) - 1
			}
		case opJTK:
			if stack[sp-1] == 1 {
				pc = int(in.arg) - 1
			}
		}
	}
	return stack[0] != 0
}

// compiler accumulates code and tracks the worst-case operand stack.
type compiler struct {
	code     []instr
	depth    int
	maxDepth int
}

func (c *compiler) emit(op uint8, arg int32) error {
	if len(c.code) >= MaxCode {
		return ErrTooLarge
	}
	c.code = append(c.code, instr{op: op, arg: arg})
	switch op {
	case opFalse, opTrue, opVar, opVarNeg:
		c.depth++
		if c.depth > c.maxDepth {
			c.maxDepth = c.depth
		}
	case opAnd, opOr:
		c.depth--
	}
	return nil
}

// CompileProp compiles a propositional formula over variables
// 0..numVars-1. Variables outside the range are an error (the caller
// resolved every atom to an uncertain-tuple index or a constant
// before getting here).
func CompileProp(f prop.Formula, numVars int) (*Program, error) {
	c := &compiler{}
	if err := c.compile(f, numVars); err != nil {
		return nil, err
	}
	return &Program{code: c.code, numVars: numVars, maxStack: c.maxDepth}, nil
}

func (c *compiler) compile(f prop.Formula, numVars int) error {
	switch g := f.(type) {
	case prop.FTrue:
		return c.emit(opTrue, 0)
	case prop.FFalse:
		return c.emit(opFalse, 0)
	case prop.FVar:
		if int(g) < 0 || int(g) >= numVars {
			return fmt.Errorf("vm: variable x%d outside range [0,%d)", int(g), numVars)
		}
		return c.emit(opVar, int32(g))
	case prop.FNot:
		if v, ok := g.F.(prop.FVar); ok {
			if int(v) < 0 || int(v) >= numVars {
				return fmt.Errorf("vm: variable x%d outside range [0,%d)", int(v), numVars)
			}
			return c.emit(opVarNeg, int32(v))
		}
		if err := c.compile(g.F, numVars); err != nil {
			return err
		}
		return c.emit(opNot, 0)
	case prop.FAnd:
		return c.compileNary([]prop.Formula(g), numVars, opAnd, opJFK, opTrue)
	case prop.FOr:
		return c.compileNary([]prop.Formula(g), numVars, opOr, opJTK, opFalse)
	default:
		return fmt.Errorf("vm: cannot compile %T", f)
	}
}

// compileNary emits an n-ary AND/OR with short-circuit jumps: after
// each partial result, a keep-top jump skips the remaining operands
// once the outcome is settled for the whole batch.
func (c *compiler) compileNary(sub []prop.Formula, numVars int, fold, jump, empty uint8) error {
	if len(sub) == 0 {
		return c.emit(empty, 0)
	}
	if err := c.compile(sub[0], numVars); err != nil {
		return err
	}
	var patches []int
	for _, g := range sub[1:] {
		patches = append(patches, len(c.code))
		if err := c.emit(jump, 0); err != nil {
			return err
		}
		if err := c.compile(g, numVars); err != nil {
			return err
		}
		if err := c.emit(fold, 0); err != nil {
			return err
		}
	}
	end := int32(len(c.code))
	for _, pc := range patches {
		c.code[pc].arg = end
	}
	return nil
}

// FirstSatisfiedHits is the bit-parallel core of the Karp–Luby
// estimator: over a batch of worlds in column layout (cols, full as
// in EvalBatch), it returns the mask of worlds whose *first*
// satisfied term in terms is exactly the term that was picked for
// them (picked[i] = mask of worlds that drew term i). The sweep keeps
// a mask of worlds not yet claimed by an earlier term, so each world
// is attributed to its first satisfying term only — the same
// tie-breaking as the scalar firstSatisfied scan.
func FirstSatisfiedHits(terms []prop.Term, cols []uint64, picked []uint64, full uint64) uint64 {
	remaining := full
	var hits uint64
	for i, t := range terms {
		sat := remaining
		for _, l := range t {
			if l.Neg {
				sat &^= cols[l.Var]
			} else {
				sat &= cols[l.Var]
			}
			if sat == 0 {
				break
			}
		}
		if sat == 0 {
			continue
		}
		hits |= sat & picked[i]
		remaining &^= sat
		if remaining == 0 {
			break
		}
	}
	return hits
}
