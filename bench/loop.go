package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// call is the trace context of one request: its recorder (nil when
// untraced), root span and request id, plus what the request reports
// back to the loop.
type call struct {
	rec       *recorder
	root, req int
	samples   int64 // Result.Samples the request drew
	abandoned int   // dispatch rungs tried and abandoned
}

// begin opens a child span of the request's root.
func (c *call) begin(name string) int { return c.rec.begin(name, c.root, c.req) }

// end closes a span opened by begin.
func (c *call) end(id int) { c.rec.end(id) }

// op is one request kind of a workload. run performs the request and
// checks its answer; a non-nil error is a failed, refused or wrong
// request.
type op struct {
	name string
	run  func(c *call) error
}

// rotation is a workload's fixed request mix: ten slots, each naming a
// kind. Every rotation sends all ten, in an order shuffled afresh (by a
// generator with a fixed seed, so every run sends the same sequence):
// the garbage collector's cycle is paced by allocation, a fixed order
// allocates periodically, and the two lock phase — in one run every
// collection lands on the same kind, in the next run on another. The
// weights are chosen so
// that the percentiles the benchmark gates sit inside one kind's bulk
// and not on the border between two kinds, where a percentile jumps
// with the smallest shift: the slowest kind holds exactly one slot (the
// top decile, so p95 is that kind's median) and one kind spans the
// middle of the sorted slots (so p50 is inside it).
type rotation struct {
	kinds []op
	slots []int // indices into kinds
	// rate == 0 is a closed loop with one caller; rate > 0 an open loop
	// at that many requests per second over `connections` connections.
	rate int
}

// newRotation builds a rotation from kinds and the slot order by name.
func newRotation(kinds []op, rate int, order ...string) rotation {
	r := rotation{kinds: kinds, rate: rate}
	for _, name := range order {
		k := -1
		for i, o := range kinds {
			if o.name == name {
				k = i
			}
		}
		if k < 0 {
			panic("bench: rotation names unknown kind " + name)
		}
		r.slots = append(r.slots, k)
	}
	return r
}

// shuffler deals the slot order of successive rotations.
type shuffler struct {
	rng   *rand.Rand
	slots []int
}

func (r rotation) shuffler() *shuffler {
	return &shuffler{rng: rand.New(rand.NewSource(int64(len(r.slots)))), slots: append([]int(nil), r.slots...)}
}

// next returns the kinds of the next rotation; the slice is reused.
func (s *shuffler) next() []int {
	s.rng.Shuffle(len(s.slots), func(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] })
	return s.slots
}

// warmUp sends one untimed request of every kind, checked like any other.
func (r rotation) warmUp() error {
	for _, o := range r.kinds {
		if err := o.run(&call{}); err != nil {
			return err
		}
	}
	return nil
}

// sample is one measured request.
type sample struct {
	kind   int
	d      time.Duration // closed loop: call time; open loop: from the due time
	late   time.Duration // open loop: how late the generator sent it
	traced bool
}

// loopResult is what a measured phase produced.
type loopResult struct {
	mu         sync.Mutex // guards the fields runOne appends to (the open loop has two senders)
	ops        []op       // the kinds
	samples    []sample
	rotations  []time.Duration // closed loop: wall time of each whole rotation
	failed     int
	firstErr   error
	wall       time.Duration
	allocBytes uint64
	drawn      int64 // Σ Result.Samples
	abandoned  int   // Σ abandoned dispatch rungs
}

func (r *loopResult) attempted() int { return len(r.samples) }

// latencies returns the request times matching keep, unsorted.
func (r *loopResult) latencies(keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if keep(s) {
			out = append(out, s.d)
		}
	}
	return out
}

// sorted returns every request time, ascending.
func (r *loopResult) sorted() []time.Duration {
	return sortedCopy(r.latencies(func(sample) bool { return true }))
}

// kindMedian is the median request time of one kind, traced or not.
func (r *loopResult) kindMedian(kind int, traced bool) time.Duration {
	return median(r.latencies(func(s sample) bool { return s.kind == kind && s.traced == traced }))
}

// kindIndex finds a rotation member by name (-1 if absent).
func (r *loopResult) kindIndex(name string) int {
	for i, o := range r.ops {
		if o.name == name {
			return i
		}
	}
	return -1
}

// traceOverheadShare compares, kind by kind, the median request time
// of the cycles that recorded spans with the cycles in between that
// did not: (Σ traced − Σ untraced) / Σ untraced.
func (r *loopResult) traceOverheadShare() float64 {
	var on, off time.Duration
	for k := range r.ops {
		on += r.kindMedian(k, true)
		off += r.kindMedian(k, false)
	}
	if off <= 0 {
		return 0
	}
	return float64(on-off) / float64(off)
}

// tracedCycle says whether rotation cycle c records spans: with a
// recorder, every other cycle does, so a traced run carries its own
// untraced control.
func tracedCycle(rec *recorder, c int) *recorder {
	if rec != nil && c%2 == 0 {
		return rec
	}
	return nil
}

// runOne executes request number req of kind k and records it.
func runOne(res *loopResult, rec *recorder, k, req int, due time.Time) {
	o := res.ops[k]
	c := &call{rec: rec, req: req}
	start := time.Now()
	c.root = rec.begin("bench.request."+o.name, -1, req)
	err := o.run(c)
	rec.end(c.root)
	end := time.Now()
	s := sample{kind: k, d: end.Sub(start), traced: rec != nil}
	if !due.IsZero() {
		s.d = end.Sub(due)
		if start.After(due) {
			s.late = start.Sub(due)
		}
	}
	res.mu.Lock()
	res.samples = append(res.samples, s)
	res.drawn += c.samples
	res.abandoned += c.abandoned
	if err != nil {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	res.mu.Unlock()
}

// minRotations is how many rotations a measured phase runs whatever its
// length: one, or with a recorder two — a traced rotation and its
// untraced control.
func minRotations(rec *recorder) int {
	if rec != nil {
		return 2
	}
	return 1
}

// closedLoop is one caller that sends its next request only after the
// previous one completed. It runs whole rotations until dur has passed
// (and at least minRotations), so every run measures the same mix.
func closedLoop(rot rotation, dur time.Duration, rec *recorder) *loopResult {
	res := &loopResult{ops: rot.kinds}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deal := rot.shuffler()
	start := time.Now()
	for cycle := 0; cycle < minRotations(rec) || time.Since(start) < dur; cycle++ {
		r := tracedCycle(rec, cycle)
		began := time.Now()
		for i, k := range deal.next() {
			runOne(res, r, k, cycle*len(rot.slots)+i, time.Time{})
		}
		res.rotations = append(res.rotations, time.Since(began))
	}
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	return res
}

// schedule returns when request i of an open loop at rate req/s is due,
// as an offset from the start of the loop.
func schedule(i, rate int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(rate))
}

// openLoop sends rate requests per second for dur on a fixed schedule,
// whether or not earlier ones have completed, from `senders` goroutines
// (= connections). Each request is timed from when it was due, so the
// wait a stall imposes on later requests is counted, and how late the
// generator itself sent it is kept beside it.
func openLoop(rot rotation, rate int, dur time.Duration, senders int, rec *recorder) *loopResult {
	res := &loopResult{ops: rot.kinds}
	n := int(int64(rate) * int64(dur) / int64(time.Second))
	if least := minRotations(rec) * len(rot.slots); n < least {
		n = least
	}
	kinds := make([]int, 0, n+len(rot.slots))
	for deal := rot.shuffler(); len(kinds) < n; {
		kinds = append(kinds, deal.next()...)
	}
	var next atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(schedule(i, rate))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				runOne(res, tracedCycle(rec, i/len(rot.slots)), kinds[i], i, due)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	return res
}

// throughput is correct requests per second. A closed loop reports the
// pace of its median rotation — a burst of interference from outside
// the process slows some rotations, not the median one — scaled by the
// share of requests that were correct; an open loop reports the rate it
// achieved over the whole phase.
func (r *loopResult) throughput() float64 {
	ok := float64(r.attempted() - r.failed)
	if len(r.rotations) == 0 {
		return ok / r.wall.Seconds()
	}
	perRotation := float64(r.attempted()) / float64(len(r.rotations))
	return perRotation / median(r.rotations).Seconds() * ok / float64(r.attempted())
}

// endToEndMetrics derives the five end-to-end metrics from an untraced
// measured phase and the set-up times of the run.
func endToEndMetrics(res *loopResult, setups []time.Duration) map[string]float64 {
	lat := res.sorted()
	return map[string]float64{
		"setup_s":          median(setups).Seconds(),
		"req_p50_ms":       ms(percentile(lat, 50)),
		"req_p95_ms":       ms(percentile(lat, 95)),
		"throughput_rps":   res.throughput(),
		"alloc_kb_per_req": float64(res.allocBytes) / 1024 / float64(res.attempted()),
	}
}
