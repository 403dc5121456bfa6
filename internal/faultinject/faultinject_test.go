package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit(SiteSafePlan); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
}

func TestErrorInjection(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("boom")
	Enable(SiteLineageBDD, Fault{Err: want})
	if err := Hit(SiteLineageBDD); !errors.Is(err, want) {
		t.Fatalf("Hit = %v, want %v", err, want)
	}
	// Other sites are unaffected.
	if err := Hit(SiteLineageKL); err != nil {
		t.Fatalf("unarmed site returned %v", err)
	}
	Reset()
	if err := Hit(SiteLineageBDD); err != nil {
		t.Fatalf("reset site returned %v", err)
	}
}

func TestTimesBoundsFirings(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("transient")
	Enable(SiteAnswerSet, Fault{Err: want, Times: 2})
	for i := 0; i < 2; i++ {
		if err := Hit(SiteAnswerSet); !errors.Is(err, want) {
			t.Fatalf("firing %d: Hit = %v, want %v", i, err, want)
		}
	}
	if err := Hit(SiteAnswerSet); err != nil {
		t.Fatalf("exhausted fault still fired: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	Reset()
	defer Reset()
	Enable(SiteWorldEnum, Fault{Panic: "forced"})
	defer func() {
		if recover() == nil {
			t.Fatalf("Hit did not panic")
		}
	}()
	_ = Hit(SiteWorldEnum)
}

func TestDelayInjection(t *testing.T) {
	Reset()
	defer Reset()
	Enable(SiteMCDirect, Fault{Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := Hit(SiteMCDirect); err != nil {
		t.Fatalf("Hit = %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay not applied: %v", d)
	}
}

func TestHoldParksUntilContextEnds(t *testing.T) {
	Reset()
	defer Reset()
	held := make(chan struct{}, 1)
	Enable(SiteWorldWorker, Fault{Hold: held, Times: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- HitContext(ctx, SiteWorldWorker) }()
	<-held
	select {
	case err := <-done:
		t.Fatalf("held HitContext returned %v before its context ended", err)
	default:
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("released HitContext = %v, want context.Canceled", err)
	}
	// Hit has no context to wait on: a hold there is a no-op.
	Enable(SiteWorldWorker, Fault{Hold: held})
	if err := Hit(SiteWorldWorker); err != nil {
		t.Fatalf("Hit at a held site = %v, want nil", err)
	}
}

func TestConcurrentHits(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("concurrent")
	Enable(SiteWorldWorker, Fault{Err: want, Times: 64})
	var wg sync.WaitGroup
	hits := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Hit(SiteWorldWorker) != nil {
					hits[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total != 64 {
		t.Fatalf("fault fired %d times, want exactly 64", total)
	}
}
