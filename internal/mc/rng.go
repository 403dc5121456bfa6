package mc

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// This file provides the serializable PRNG used by every randomized
// engine. The stock math/rand source hides its state, so a sampling
// loop interrupted by a crash could never resume on the same random
// stream; Source is a xoshiro256** generator (Blackman & Vigna) whose
// 256-bit state can be captured at any sample boundary and restored
// later, making a resumed run bit-identical to an uninterrupted run
// with the same seed. Every sampling run draws from a Source — the
// driver's lanes carry one each — so the checkpoint/resume guarantee
// holds whether or not a particular run checkpoints.

// RNGState is the serializable 256-bit state of a Source. The zero
// value is invalid (xoshiro's state must never be all-zero); states
// obtained from Source.State are always valid.
type RNGState [4]uint64

// IsZero reports the invalid all-zero state.
func (st RNGState) IsZero() bool { return st == RNGState{} }

// Source is a serializable rand.Source64: xoshiro256** seeded through
// splitmix64, per the reference implementation's recommendation. Not
// safe for concurrent use (neither is rand.Rand).
type Source struct {
	s [4]uint64
}

// newSource returns a Source deterministically seeded from seed.
func newSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// NewRand returns a *rand.Rand over a fresh Source, for callers that
// want math/rand's methods over the serializable stream.
func NewRand(seed int64) *rand.Rand { return rand.New(newSource(seed)) }

// Seed resets the source to the deterministic state derived from seed
// by four rounds of splitmix64 (which cannot produce the forbidden
// all-zero xoshiro state from any input).
func (s *Source) Seed(seed int64) {
	x := uint64(seed)
	for i := range s.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	if s.s == [4]uint64{} {
		s.s[0] = 1 // unreachable in practice; keep the invariant anyway
	}
}

// Uint64 advances the generator (xoshiro256**).
func (s *Source) Uint64() uint64 {
	r := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return r
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// State captures the current state; restoring it with SetState resumes
// the stream at exactly this point.
func (s *Source) State() RNGState { return RNGState(s.s) }

// SetState restores a state captured by State. The all-zero state is
// rejected: it is xoshiro's absorbing fixed point and can only come
// from a zero-valued (never-captured) snapshot.
func (s *Source) SetState(st RNGState) error {
	if st.IsZero() {
		return fmt.Errorf("mc: refusing to restore all-zero RNG state")
	}
	s.s = st
	return nil
}

// Jump and LongJump polynomials from the reference xoshiro256**
// implementation (Blackman & Vigna). Applying the polynomial advances
// the stream by a fixed power of two, so a seed plus a jump count
// names a deterministic position in the stream.
var (
	jumpPoly     = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	longJumpPoly = [4]uint64{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}
)

// applyJump advances the state by the given jump polynomial.
func (s *Source) applyJump(poly [4]uint64) {
	var s0, s1, s2, s3 uint64
	for _, word := range poly {
		for b := 0; b < 64; b++ {
			if word&(1<<uint(b)) != 0 {
				s0 ^= s.s[0]
				s1 ^= s.s[1]
				s2 ^= s.s[2]
				s3 ^= s.s[3]
			}
			s.Uint64()
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Jump advances the stream by 2^128 draws: the subsequence starting at
// the jumped state is disjoint from the next 2^128 draws of the
// un-jumped source. Used to derive non-overlapping substreams from one
// seed.
func (s *Source) Jump() { s.applyJump(jumpPoly) }

// LongJump advances the stream by 2^192 draws, partitioning the period
// into 2^64 starting points each 2^192 apart — one per sampling lane.
// Lane i of a lane-split run uses the seed's base state advanced by i
// LongJumps (see splitLanes).
func (s *Source) LongJump() { s.applyJump(longJumpPoly) }
