package mc

import (
	"math/rand"
	"testing"
)

// TestHotRNGMatchesRand locks down the bit-identity contract between
// HotRNG's inlined derivations and the math/rand methods the
// interpreted kernels call. The two streams must agree value-for-value
// under an arbitrary interleaving of draw kinds, because the batched
// kernels interleave world draws with pick and padding draws per
// sample; the hoisted state is written back after every draw here, so
// the sources must agree at every boundary too.
func TestHotRNGMatchesRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1998, 1 << 40} {
		a := newSource(seed)
		b := newSource(seed)
		ref := rand.New(b)
		mix := rand.New(newSource(seed ^ 0x5eed))
		for i := 0; i < 20000; i++ {
			d := a.Hot()
			switch mix.Intn(3) {
			case 0:
				if got, want := d.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, got, want)
				}
			case 1:
				if got, want := d.Intn2(), ref.Intn(2); got != want {
					t.Fatalf("seed %d draw %d: Intn2 %v != %v", seed, i, got, want)
				}
			default:
				if got, want := d.Byte(), byte(ref.Intn(256)); got != want {
					t.Fatalf("seed %d draw %d: Byte %v != %v", seed, i, got, want)
				}
			}
			a.PutHot(d)
			if a.State() != b.State() {
				t.Fatalf("seed %d draw %d: source states diverged", seed, i)
			}
		}
	}
}
