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
// trusts it: checkShipped re-validates the CRC frame and holds the
// snapshot to the lane range it is about to resume. A frame that fails
// validation is dropped (counted, never fatal) and the range restarts
// clean — a corrupt checkpoint can cost work, never correctness.

import (
	"encoding/json"
	"fmt"
	"sync"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/mc"
)

// shippedSnapshot mirrors the fields of the engine snapshot payload
// (internal/core's engineState JSON) that the coordinator can verify
// without re-parsing the query. The full fingerprint — query text,
// accuracy — is re-checked by the replica that resumes the frame; the
// coordinator's job is to reject frames that are corrupt or belong to
// a different range before wasting a round-trip on them.
type shippedSnapshot struct {
	Engine  string        `json:"engine"`
	Seed    int64         `json:"seed"`
	Lanes   int           `json:"lanes"`
	Samples int           `json:"samples"`
	Loop    *mc.LoopState `json:"loop"`
}

// checkShipped validates one shipped checkpoint frame against the lane
// range it is supposed to resume and returns the snapshot's sample
// count (the shipping sequence number). It must return an error —
// never panic — on arbitrary input; FuzzCheckShipped enforces that.
func checkShipped(frame []byte, seed int64, rg mc.Range) (int, error) {
	payload, err := checkpoint.DecodeFrame(frame)
	if err != nil {
		return 0, err
	}
	var st shippedSnapshot
	if err := json.Unmarshal(payload, &st); err != nil {
		return 0, fmt.Errorf("cluster: undecodable shipped snapshot: %w", err)
	}
	if st.Engine != string(core.EngineMCDirect) {
		return 0, fmt.Errorf("cluster: shipped snapshot is for engine %q, want %q", st.Engine, core.EngineMCDirect)
	}
	if st.Seed != seed {
		return 0, fmt.Errorf("cluster: shipped snapshot is for seed %d, this run uses %d", st.Seed, seed)
	}
	if st.Lanes != rg.Total {
		return 0, fmt.Errorf("cluster: shipped snapshot splits %d lanes, this run splits %d", st.Lanes, rg.Total)
	}
	if st.Loop == nil {
		return 0, fmt.Errorf("cluster: shipped snapshot carries no estimator loop state")
	}
	if want := mc.RangeMethod(mc.MeanMethod, rg); st.Loop.Method != want {
		return 0, fmt.Errorf("cluster: shipped snapshot is from estimator %q, range %s needs %q", st.Loop.Method, rg, want)
	}
	if n := rg.Hi - rg.Lo; st.Loop.LaneCount != n {
		return 0, fmt.Errorf("cluster: shipped snapshot holds %d lane states, range %s needs %d", st.Loop.LaneCount, rg, n)
	}
	if len(st.Loop.Lanes) != st.Loop.LaneCount {
		return 0, fmt.Errorf("cluster: shipped snapshot declares %d lanes but carries %d states", st.Loop.LaneCount, len(st.Loop.Lanes))
	}
	if st.Samples < 0 || st.Loop.Drawn != st.Samples {
		return 0, fmt.Errorf("cluster: shipped snapshot sample counts disagree (%d vs loop %d)", st.Samples, st.Loop.Drawn)
	}
	return st.Samples, nil
}

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
	seq, err := checkShipped(frame, t.seed, t.rg)
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
	seq, err := checkShipped(frame, t.seed, t.rg)
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
