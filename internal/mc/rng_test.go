package mc

import (
	"encoding/json"
	"testing"
)

func TestSourceDeterministic(t *testing.T) {
	a, b := newSource(42), newSource(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed sources diverge at draw %d: %d vs %d", i, av, bv)
		}
	}
	c := newSource(43)
	same := 0
	a = newSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestSourceStateRoundTrip(t *testing.T) {
	a := newSource(7)
	for i := 0; i < 123; i++ {
		a.Uint64()
	}
	st := a.State()

	// Continue the original; replay a restored copy: streams must match.
	b := newSource(0)
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("restored source diverges at draw %d", i)
		}
	}
}

func TestRNGStateJSONRoundTrip(t *testing.T) {
	a := newSource(99)
	a.Uint64()
	st := a.State()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back RNGState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("JSON round trip changed state: %v vs %v", back, st)
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	var s Source
	if err := s.SetState(RNGState{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := newSource(3)
	for i := 0; i < 10000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

func TestNewRandUsableByRand(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
}

func TestJumpDeterministicAndDisjoint(t *testing.T) {
	// Jump is a deterministic function of the state.
	a, b := newSource(11), newSource(11)
	a.Jump()
	b.Jump()
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-state jumps diverge at draw %d: %d vs %d", i, av, bv)
		}
	}
	// A jumped stream does not collide with the base stream's prefix.
	base, jumped := newSource(11), newSource(11)
	jumped.Jump()
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[base.Uint64()] = true
	}
	same := 0
	for i := 0; i < 1000; i++ {
		if seen[jumped.Uint64()] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("jumped stream shares %d/1000 values with the base prefix", same)
	}
}

func TestLongJumpDiffersFromJump(t *testing.T) {
	j, lj := newSource(5), newSource(5)
	j.Jump()
	lj.LongJump()
	diff := false
	for i := 0; i < 16; i++ {
		if j.Uint64() != lj.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Jump and LongJump landed on the same stream")
	}
	// LongJump preserves determinism too.
	a, b := newSource(5), newSource(5)
	a.LongJump()
	b.LongJump()
	if a.Uint64() != b.Uint64() {
		t.Fatal("same-state long jumps diverge")
	}
}

func TestSplitLanesDeterministic(t *testing.T) {
	la, lb := splitLanes(99, DefaultLanes), splitLanes(99, DefaultLanes)
	for i := range la {
		if la[i].Src.State() != lb[i].Src.State() {
			t.Fatalf("lane %d state differs between identical splits", i)
		}
	}
	// Distinct lanes are distinct streams.
	states := map[RNGState]bool{}
	for _, ln := range la {
		st := ln.Src.State()
		if states[st] {
			t.Fatal("two lanes share an RNG state")
		}
		states[st] = true
	}
}
