// Package cliutil gives every qrel command a uniform failure surface:
// the typed error taxonomy of the runtime maps onto distinct exit codes
// so scripts can branch on the failure mode, usage errors are
// distinguished from runtime errors, and a recover helper guarantees a
// malformed input can produce at worst a one-line error — never a panic
// stack trace.
package cliutil

import (
	"context"
	"errors"
	"fmt"

	"qrel/internal/core"
	"qrel/internal/unreliable"
)

// Exit codes. Scripts rely on these being stable.
const (
	// ExitOK: success.
	ExitOK = 0
	// ExitFailure: any error outside the classes below (I/O, malformed
	// input files, internal faults).
	ExitFailure = 1
	// ExitUsage: bad flags or arguments (the conventional 2, matching
	// flag.ExitOnError).
	ExitUsage = 2
	// ExitCanceled: the computation was canceled or timed out
	// (core.ErrCanceled, context cancellation/deadline).
	ExitCanceled = 3
	// ExitBudget: a resource budget was exhausted (core.ErrBudgetExceeded,
	// or an enumeration refused outside core: unreliable.ErrEnumBudget).
	ExitBudget = 4
	// ExitInfeasible: no feasible engine covers the query
	// (core.ErrInfeasible).
	ExitInfeasible = 5
	// ExitEngine: an engine crashed and was contained (core.ErrEngineFailed).
	ExitEngine = 6
)

// errUsage marks usage errors for ExitCode.
var errUsage = errors.New("usage error")

// UsageErrorf builds an error that ExitCode maps to ExitUsage.
func UsageErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

// IsUsage reports whether err is a usage error.
func IsUsage(err error) bool { return errors.Is(err, errUsage) }

// ExitCode maps an error onto the command exit code: nil is ExitOK,
// usage errors are ExitUsage, the typed runtime taxonomy gets its
// dedicated codes, and everything else is ExitFailure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, errUsage):
		return ExitUsage
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ExitCanceled
	case errors.Is(err, core.ErrBudgetExceeded),
		errors.Is(err, unreliable.ErrEnumBudget):
		return ExitBudget
	case errors.Is(err, core.ErrInfeasible):
		return ExitInfeasible
	case errors.Is(err, core.ErrEngineFailed):
		return ExitEngine
	default:
		return ExitFailure
	}
}

// Recover converts a panic in the calling function into *errp, so a
// command's run function can guarantee "one-line error, nonzero exit"
// even for inputs that crash a parser. Use as:
//
//	func run(...) (err error) {
//		defer cliutil.Recover(&err)
//		...
//	}
func Recover(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("internal error: %v", r)
	}
}
