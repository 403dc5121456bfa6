package mc

import "math/bits"

// HotRNG is a lane Source's xoshiro256** state hoisted into plain
// struct fields for the duration of one evaluation batch. The compiled
// samplers draw tens of values per sample; going through
// (*Source).Uint64 pays a non-inlined call plus four state loads and
// stores per draw, which profiling shows dominates the batched Karp–Luby
// loop. HotRNG's methods are small enough to inline, so a batch loop
// that keeps a HotRNG in a local variable gets the whole generator step
// compiled into the loop body with the state words held in registers.
//
// The value stream is exactly (*Source).Uint64's, and the derived draws
// replicate, bit for bit, the value derivations math/rand performs over
// a rand.Source64 — the ones the interpreted kernels get by calling
// ln.Rng: Float64 with rand's retry-on-1.0 derivation from Int63, and
// the power-of-two Intn cases (Intn(2), Intn(256)) via the Int31
// masking path. Equivalence is locked down by TestHotRNGMatchesRand; if
// a Go release ever changed math/rand's derivations (it has not since
// Go 1), that test fails loudly. Usage contract: obtain the state with
// Source.Hot at the start of a batch and write it back with
// Source.PutHot before the batch ends — in particular before any
// checkpoint captures Source.State — so snapshots and lane digests
// never observe a stale generator.
type HotRNG struct {
	s0, s1, s2, s3 uint64
}

// Hot returns the source's generator state as a HotRNG.
func (s *Source) Hot() HotRNG { return HotRNG{s.s[0], s.s[1], s.s[2], s.s[3]} }

// PutHot writes a HotRNG's state back into the source, resuming the
// shared stream where the batch left off.
func (s *Source) PutHot(h HotRNG) { s.s = [4]uint64{h.s0, h.s1, h.s2, h.s3} }

// Uint64 advances the generator: the xoshiro256** step of
// (*Source).Uint64 over the hoisted state words.
func (h *HotRNG) Uint64() uint64 {
	r := bits.RotateLeft64(h.s1*5, 7) * 9
	t := h.s1 << 17
	h.s2 ^= h.s0
	h.s3 ^= h.s1
	h.s1 ^= h.s2
	h.s0 ^= h.s3
	h.s2 ^= t
	h.s3 = bits.RotateLeft64(h.s3, 45)
	return r
}

// Intn2 replicates rand.Rand.Intn(2): the power-of-two Int31n path,
// Int31() & 1 with Int31 = int32(Int63() >> 32).
func (h *HotRNG) Intn2() int { return int(int32(int64(h.Uint64()>>1)>>32) & 1) }

// Byte replicates rand.Rand.Intn(256) the same way.
func (h *HotRNG) Byte() byte { return byte(int32(int64(h.Uint64()>>1)>>32) & 255) }

// Float64 replicates rand.Rand.Float64: float64(Int63())/2^63, with
// the astronomically rare retry when the division rounds to 1.0
// outlined so the fast path stays inlinable.
func (h *HotRNG) Float64() float64 {
	f := float64(int64(h.Uint64()>>1)) / (1 << 63)
	if f == 1 {
		return h.float64Retry()
	}
	return f
}

func (h *HotRNG) float64Retry() float64 {
	for {
		f := float64(int64(h.Uint64()>>1)) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}
