package cluster

// Coordinator-side checkpoint shipping. Replicas running a lane range
// publish CRC-framed snapshots of the estimator loop mid-run (see
// internal/server's shipping layer); the coordinator collects the
// freshest frame per range — from job checkpoint polls and from
// response bodies — and, when the replica owning the range dies,
// re-plants the frame on the survivor the range is reassigned to. The
// survivor resumes the deterministic sampling stream exactly where the
// dead replica left it: the work already done is conserved and the
// final estimate stays bit-identical to an uninterrupted run.
//
// A shipped frame crosses a process boundary, so the coordinator never
// trusts it: core.CheckRangeFrame — core owns the snapshot payload, so
// it alone decodes one — re-validates the CRC frame and holds the
// snapshot to the lane range it is about to resume. A frame that fails
// validation is dropped (counted, never fatal) and the range restarts
// clean — a corrupt checkpoint can cost work, never correctness.

import (
	"encoding/json"
	"sync"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/mc"
)

// shipTracker accumulates the freshest validated checkpoint frame for
// one lane range across every replica that runs it. All methods are
// nil-safe (a nil tracker means shipping is off for the call).
type shipTracker struct {
	c    *Coordinator
	seed int64
	rg   mc.Range
	j    *fanoutJournal // nil when this fan-out is not journaled
	idx  int            // this range's index in the journal record

	mu    sync.Mutex
	frame []byte
	seq   int
	from  string
}

// accept validates a frame shipped by a replica and keeps it when it
// is fresher than the current one, mirroring the accepted frame into
// the fan-out journal. An armed SiteClusterCkptShip fault corrupts the
// frame in flight: the tamper rewrites the snapshot's accuracy
// fingerprint, which the coordinator deliberately does not verify, so
// the frame is only caught by the replica it is later planted on — the
// chaos campaign's proof that a replica-rejected resume degrades to a
// clean restart, never a wrong answer.
func (t *shipTracker) accept(frame []byte, from string) {
	if t == nil || len(frame) == 0 {
		return
	}
	if err := faultinject.Hit(faultinject.SiteClusterCkptShip); err != nil {
		frame = tamperFrame(frame)
	}
	seq, err := core.CheckRangeFrame(frame, t.seed, t.rg)
	if err != nil {
		t.c.nCkptRejected.Add(1)
		return
	}
	t.mu.Lock()
	fresher := t.frame == nil || seq > t.seq
	if fresher {
		t.frame, t.seq, t.from = frame, seq, from
	}
	t.mu.Unlock()
	if !fresher {
		return
	}
	t.c.nCkptShipped.Add(1)
	t.j.setCheckpoint(t.idx, frame, seq, from)
}

// tamperFrame is the SiteClusterCkptShip corruption: it rewrites the
// snapshot's eps fingerprint field (leaving everything the coordinator
// validates intact, via RawMessage round-trip) and re-frames the
// payload, falling back to a CRC-breaking byte flip when the frame is
// not even decodable.
func tamperFrame(frame []byte) []byte {
	var m map[string]json.RawMessage
	payload, err := checkpoint.DecodeFrame(frame)
	if err == nil {
		err = json.Unmarshal(payload, &m)
	}
	if err == nil {
		m["eps"] = json.RawMessage("2")
		if tampered, merr := json.Marshal(m); merr == nil {
			return checkpoint.EncodeFrame(tampered)
		}
	}
	cp := append([]byte(nil), frame...)
	cp[len(cp)/2] ^= 0xff
	return cp
}

// preload seeds the tracker from a journaled frame (validated, but
// outside the fault site and the shipped counter — the frame was
// already accepted by the process that journaled it).
func (t *shipTracker) preload(frame []byte, from string) {
	if t == nil || len(frame) == 0 {
		return
	}
	seq, err := core.CheckRangeFrame(frame, t.seed, t.rg)
	if err != nil {
		t.c.nCkptRejected.Add(1)
		return
	}
	t.mu.Lock()
	if t.frame == nil || seq > t.seq {
		t.frame, t.seq, t.from = frame, seq, from
	}
	t.mu.Unlock()
}

// latest returns the freshest accepted frame, its sequence number, and
// the replica it came from (nil frame when none).
func (t *shipTracker) latest() ([]byte, int, string) {
	if t == nil {
		return nil, 0, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frame, t.seq, t.from
}

// drop discards the held frame after a replica rejected it, so the
// next attempt restarts clean instead of replaying a doomed resume.
func (t *shipTracker) drop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.frame, t.seq, t.from = nil, 0, ""
	t.mu.Unlock()
}
