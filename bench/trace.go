package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are ROADMAP item 3). Start and End
// are offsets from the recorder's epoch. Spans of one request share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a request's root span
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans and counts in memory until the run ends. A nil
// *recorder is the untraced run: every method is a no-op, so call sites
// need no branch.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// count adds n to a named counter, recorded at the same boundary as
// the span it sits beside.
func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanRow is one line of the per-layer table.
type spanRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// spanTable groups closed spans by name.
func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	byName := map[string]*spanRow{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &spanRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.Total += s.End - s.Start
		row.Self += self[i]
	}
	rows := make([]spanRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// selfShares returns each layer's self time as a share of the summed
// root-span time — where a request's wall clock goes, by module. Probe
// spans (Req < 0) belong to no request and are left out.
func selfShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	var rootTotal time.Duration
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < 0 || s.Req < 0 {
			continue
		}
		if s.Parent < 0 {
			rootTotal += s.End - s.Start
		}
		byLayer[layerOf(s.Name)] += self[i]
	}
	out := map[string]float64{}
	if rootTotal <= 0 {
		return out
	}
	for l, d := range byLayer {
		out[l] = float64(d) / float64(rootTotal)
	}
	return out
}

// printSpanTable writes the per-layer table of a traced run.
func printSpanTable(w io.Writer, spans []span, counts map[string]int64) {
	fmt.Fprintf(w, "%-42s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range spanTable(spans) {
		fmt.Fprintf(w, "%-42s %8d %12.3f %12.3f %10.1f\n", r.Name, r.Count, ms(r.Total), ms(r.Self), us(r.Self)/float64(r.Count))
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "count %-36s %d\n", n, counts[n])
	}
}

// traceDump is one traced workload as the trace file holds it.
type traceDump struct {
	Workload string           `json:"workload"`
	Spans    []span           `json:"spans"`
	Counts   map[string]int64 `json:"counts"`
}

// writeTraces writes the in-memory spans and counts of every traced
// workload of this invocation out, when the run ends.
func writeTraces(path string, dumps []traceDump) error {
	if len(dumps) == 0 {
		return nil
	}
	data, err := json.Marshal(dumps)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
