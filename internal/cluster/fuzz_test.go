package cluster

import (
	"math"
	"math/rand"
	"testing"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/mc"
)

// FuzzCheckShipped hammers the coordinator-side frame decoder with
// arbitrary bytes: a shipped checkpoint crosses a process boundary, so
// every malformed shape — truncated frames, bad CRCs, undecodable
// payloads, lane-count lies — must come back as an error, never a
// panic, and an accepted frame must report a non-negative sequence.
func FuzzCheckShipped(f *testing.F) {
	rg := mc.Range{Lo: 4, Hi: 8, Total: 8}
	valid := validFrame(42, rg, 1000)
	f.Add([]byte(nil), int64(42), 4, 8, 8)
	f.Add(valid, int64(42), 4, 8, 8)
	f.Add(valid, int64(43), 4, 8, 8)                // wrong seed
	f.Add(valid, int64(42), 0, 4, 8)                // wrong range
	f.Add(valid[:len(valid)/2], int64(42), 4, 8, 8) // truncated
	f.Add(checkpoint.EncodeFrame([]byte("notjson")), int64(42), 4, 8, 8)
	f.Add(checkpoint.EncodeFrame([]byte(`{"engine":"monte-carlo-direct","seed":42,"lanes":8,"samples":9,"loop":{"method":"hoeffding@4-8/8","drawn":9,"lane_count":17}}`)), int64(42), 4, 8, 8)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)/2] ^= 0xff
	f.Add(badCRC, int64(42), 4, 8, 8)

	f.Fuzz(func(t *testing.T, frame []byte, seed int64, lo, hi, total int) {
		seq, err := core.CheckRangeFrame(frame, seed, mc.Range{Lo: lo, Hi: hi, Total: total})
		if err == nil && seq < 0 {
			t.Fatalf("CheckRangeFrame accepted a frame with negative sequence %d", seq)
		}
	})
}

// FuzzLaneDigest pins the two properties the audit layer stands on:
// the attestation digest is a pure function of the lane aggregates
// (recomputing over a copy round-trips, and computing it never mutates
// its input), and it is injective enough to audit with — perturbing any
// single field of any lane, by as little as one ulp of a sum, yields a
// different digest.
func FuzzLaneDigest(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0))
	f.Add(int64(42), uint8(8), uint8(3), uint8(1))
	f.Add(int64(-7), uint8(1), uint8(0), uint8(2))
	f.Add(int64(0), uint8(5), uint8(4), uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, n, which, field uint8) {
		rng := rand.New(rand.NewSource(seed))
		lanes := make([]mc.LaneAgg, int(n%8)+1)
		for i := range lanes {
			quota := 1 + rng.Intn(1000)
			drawn := rng.Intn(quota + 1)
			lanes[i] = mc.LaneAgg{
				Idx:   i,
				Quota: quota,
				Drawn: drawn,
				Hits:  rng.Intn(drawn + 1),
				Sum:   rng.Float64() * float64(drawn),
			}
		}
		orig := append([]mc.LaneAgg(nil), lanes...)
		d1 := mc.RangeDigest(lanes)
		if d2 := mc.RangeDigest(append([]mc.LaneAgg(nil), lanes...)); d2 != d1 {
			t.Fatalf("digest of a copy diverged: %s vs %s", d1, d2)
		}
		for i := range lanes {
			if lanes[i] != orig[i] {
				t.Fatalf("RangeDigest mutated its input at lane %d", i)
			}
		}

		mut := append([]mc.LaneAgg(nil), lanes...)
		k := int(which) % len(mut)
		switch field % 4 {
		case 0:
			mut[k].Sum = math.Nextafter(mut[k].Sum, math.Inf(1))
		case 1:
			mut[k].Quota++
		case 2:
			mut[k].Drawn++
		case 3:
			mut[k].Hits++
		}
		if dm := mc.RangeDigest(mut); dm == d1 {
			t.Fatalf("perturbing lane %d field %d left the digest unchanged (%s)", k, field%4, d1)
		}
		if dt := mc.RangeDigest(append(mut[:0:0], mut...)); dt != mc.RangeDigest(mut) {
			t.Fatalf("perturbed digest not deterministic")
		}
	})
}
