package cliutil

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"qrel/internal/core"
	"qrel/internal/unreliable"
)

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("something else"), ExitFailure},
		{UsageErrorf("need -db"), ExitUsage},
		{core.ErrCanceled, ExitCanceled},
		{fmt.Errorf("wrapped: %w", core.ErrCanceled), ExitCanceled},
		{context.DeadlineExceeded, ExitCanceled},
		{context.Canceled, ExitCanceled},
		{core.ErrBudgetExceeded, ExitBudget},
		{fmt.Errorf("x: %w", core.ErrBudgetExceeded), ExitBudget},
		{fmt.Errorf("x: %w", unreliable.ErrEnumBudget), ExitBudget},
		{core.ErrInfeasible, ExitInfeasible},
		{core.ErrEngineFailed, ExitEngine},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestUsageErrorsAreDetectable(t *testing.T) {
	err := UsageErrorf("bad flag %q", "-x")
	if !IsUsage(err) {
		t.Error("IsUsage false for a usage error")
	}
	if IsUsage(errors.New("other")) {
		t.Error("IsUsage true for a non-usage error")
	}
}

func TestRecoverConvertsPanics(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err)
		panic("corrupt index")
	}
	err := f()
	if err == nil {
		t.Fatal("panic not converted to an error")
	}
	if ExitCode(err) != ExitFailure {
		t.Errorf("recovered panic exit code %d, want %d", ExitCode(err), ExitFailure)
	}
}
