package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qrel"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 200; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	if got := schedule(250, 100); got != 2500*time.Millisecond {
		t.Fatalf("request 250 at 100 req/s is due at %v, want 2.5s", got)
	}
	// One connection, 10 ms between due times, 30 ms of service: the
	// generator falls 20 ms further behind with every request, and each
	// request's time — counted from when it was due — includes that.
	const service = 30 * time.Millisecond
	rot := newRotation([]op{{name: "slow", run: func(*call) error { time.Sleep(service); return nil }}}, 100, "slow")
	res := openLoop(rot, rot.rate, 100*time.Millisecond, 1, nil)
	if res.attempted() != 10 || res.failed != 0 {
		t.Fatalf("sent %d requests (%d failed), want 10 at 100 req/s for 0.1 s", res.attempted(), res.failed)
	}
	for i, s := range res.samples {
		if s.d < s.late+service {
			t.Errorf("request %d: time from due %v is less than lateness %v + service %v", i, s.d, s.late, service)
		}
		if wantLate := time.Duration(i) * 20 * time.Millisecond; s.late < wantLate-time.Millisecond {
			t.Errorf("request %d sent %v late, want at least %v", i, s.late, wantLate)
		}
	}
	if res.samples[0].late > 5*time.Millisecond {
		t.Errorf("the first request was sent %v late on an idle generator", res.samples[0].late)
	}
}

func TestClosedLoopRunsWholeRotations(t *testing.T) {
	n := 0
	ops := []op{
		{name: "a", run: func(*call) error { n++; return nil }},
		{name: "b", run: func(*call) error { n++; time.Sleep(time.Millisecond); return nil }},
		{name: "c", run: func(c *call) error { n++; c.samples = 7; return nil }},
	}
	res := closedLoop(newRotation(ops, 0, "a", "b", "c", "b"), 10*time.Millisecond, nil)
	if res.attempted() != n || n%4 != 0 || n < 4 || len(res.rotations) != n/4 {
		t.Errorf("ran %d requests (%d recorded, %d rotations): not whole rotations", n, res.attempted(), len(res.rotations))
	}
	if res.drawn != int64(7*n/4) {
		t.Errorf("drawn = %d, want %d", res.drawn, 7*n/4)
	}
	if got := len(res.latencies(func(s sample) bool { return s.kind == 1 })); got != n/2 {
		t.Errorf("kind b ran %d times in %d requests, want half", got, n)
	}
	// Four requests per rotation, every rotation at least 2 ms.
	if tp := res.throughput(); tp <= 0 || tp > 4/0.002 {
		t.Errorf("throughput = %v req/s", tp)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.request.x", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "logic.Parse", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "core.Reliability", Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Name: "core.Reliability", Start: 70, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "bdd.Prob", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [70,100] of the root: 70 of 100.
	want := []time.Duration{30, 20, 10, 50, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
	shares := selfShares(spans)
	if got := shares["bench"]; got != 0.3 {
		t.Errorf("bench self share = %v, want 0.3", got)
	}
	if got := shares["core"]; got != 0.6 {
		t.Errorf("core self share = %v, want 0.6 (10 + 50 of 100)", got)
	}
	rows := spanTable(spans)
	if len(rows) != 4 || rows[2].Name != "core.Reliability" || rows[2].Count != 2 || rows[2].Total != 80 {
		t.Errorf("span table = %+v", rows)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	r.count("x", 1)
	if id != -1 {
		t.Errorf("a nil recorder returned span id %d", id)
	}
}

func dbText(t *testing.T, db *qrel.DB) string {
	t.Helper()
	var b strings.Builder
	if err := qrel.WriteDB(&b, db); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestGeneratorsAreAFunctionOfTheSeed(t *testing.T) {
	sz := smokeSizes
	gens := map[string]func(seed int64) *qrel.DB{
		"qfree": func(s int64) *qrel.DB { return qfreeDB(subRNG(s, 0), sz.QFreeN) },
		"chain": func(s int64) *qrel.DB { return chainDB(subRNG(s, 1), sz.ChainN) },
		"path":  func(s int64) *qrel.DB { return existPathDB(subRNG(s, 2), sz.ExistPath) },
		"hub":   func(s int64) *qrel.DB { return existHubDB(subRNG(s, 3), sz.Hubs) },
		"cycle": func(s int64) *qrel.DB { return cycleDB(subRNG(s, 4), sz.CycleN) },
		"fan":   func(s int64) *qrel.DB { return fanDB(subRNG(s, 10), sz.FanN) },
		"store": func(s int64) *qrel.DB { return storeDB(subRNG(s, 30), sz.StoreN, sz.StoreDraws, sz.StoreUncertain) },
	}
	for name, gen := range gens {
		a, b, c := gen(1998), gen(1998), gen(7)
		if dbText(t, a) != dbText(t, b) {
			t.Errorf("%s: the same seed gave two different databases", name)
		}
		if dbText(t, a) == dbText(t, c) {
			t.Errorf("%s: two seeds gave the same database", name)
		}
		// The seed never changes the shape, which is what engines pay for.
		if a.NumUncertain() != c.NumUncertain() || a.A.N != c.A.N {
			t.Errorf("%s: shape depends on the seed: u=%d n=%d against u=%d n=%d",
				name, a.NumUncertain(), a.A.N, c.NumUncertain(), c.A.N)
		}
	}
}

func TestFullSizeReferencesAreNotDegenerate(t *testing.T) {
	// The closed forms are cheap at full size: check the 0.5..0.98 band
	// over a spread of seeds, not only the default one.
	sz := fullSizes
	for seed := int64(1); seed <= 40; seed++ {
		for name, r := range map[string]interface{ Float64() (float64, bool) }{
			"qfree": qfreeOracle(qfreeDB(subRNG(seed, 0), sz.QFreeN)),
			"hub":   hubOracle(existHubDB(subRNG(seed, 3), sz.Hubs), sz.Hubs),
			"hub7":  hubOracle(existHubDB(subRNG(seed, 21), sz.ServeHubs), sz.ServeHubs),
			"cycle": cycleOracle(cycleDB(subRNG(seed, 4), sz.CycleN)),
			"fan":   fanOracle(fanDB(subRNG(seed, 10), sz.FanN)),
		} {
			if f, _ := r.Float64(); f < 0.5 || f > 0.98 {
				t.Errorf("seed %d: %s reliability %.4f is outside 0.5..0.98", seed, name, f)
			}
		}
	}
}

// benchmarkJSON is the schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, the harness %q/%q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness has %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
	}
}

func TestSmokePrintsEveryMetricOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-dir", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("-smoke exited %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	// Metric lines are "<workload> <metric> <value> <unit>".
	printed := map[string]map[string]int{}
	units := map[string]string{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		if printed[f[0]] == nil {
			printed[f[0]] = map[string]int{}
		}
		printed[f[0]][f[1]]++
		units[f[1]] = f[3]
	}
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		check := func(name, unit string) {
			if n := printed[w.Name][name]; n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.Name, name, n)
			}
			if units[name] != unit {
				t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", name, units[name], unit)
			}
		}
		for _, m := range b.EndToEnd {
			check(m.Name, m.Unit)
		}
		for _, m := range b.PerLayer {
			check(m.Name, m.Unit)
		}
	}
	// Two result lines per workload, each with exactly the four keys.
	lines := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		lines++
		var r map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line is not JSON: %v", err)
		}
		if len(r) != 4 || r["correct"] == nil || r["attempted"] == nil || r["failed"] == nil || r["metrics"] == nil {
			t.Errorf("result line has keys %v", r)
		}
		if string(r["correct"]) != "true" || string(r["failed"]) != "0" {
			t.Errorf("smoke pass not correct: %s", line)
		}
	}
	if lines != 2*len(b.Workloads) {
		t.Errorf("%d result lines, want %d", lines, 2*len(b.Workloads))
	}
}

func TestCompareRefusesAndJudges(t *testing.T) {
	mk := func(procs int, seed int64, p50 ...float64) *resultFile {
		f := &resultFile{Env: environment{GOMAXPROCS: procs}}
		for _, v := range p50 {
			f.Runs = append(f.Runs, record{Workload: "exact-ladder", Seed: seed, Seconds: 15, Correct: true, Attempted: 100,
				Metrics: map[string]value{"req_p50_ms": {Value: v, Unit: "ms"}}})
		}
		return f
	}
	if err := sameExperiment(mk(2, 1, 10), mk(4, 1, 10)); err == nil {
		t.Error("files taken at different GOMAXPROCS compared")
	}
	if err := sameExperiment(mk(2, 1, 10), mk(2, 2, 10)); err == nil {
		t.Error("files taken at different seeds compared")
	}
	if err := sameExperiment(mk(2, 1, 10, 10.1), mk(2, 1, 10.2)); err != nil {
		t.Errorf("repetitions of one experiment refused: %v", err)
	}
	def := metricDef{"req_p50_ms", "ms", "lower", 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.1, 10.2, 10.1}, []float64{10.1, 10.2, 10.0, 10.1}, "unchanged"},
		{[]float64{10, 10.1, 10.2, 10.1}, []float64{11.5, 11.6, 11.4, 11.5}, "regressed"},
		{[]float64{10, 10.1, 10.2, 10.1}, []float64{8.1, 8.2, 8.0, 8.1}, "improved"},
		{[]float64{10, 12, 8, 11}, []float64{10.5, 9, 12.5, 10}, "unresolved"},
	} {
		if got, _, _ := verdict(def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	var out bytes.Buffer
	if code := compareResults(mk(2, 1, 10, 10.1, 10.2), mk(2, 1, 13.5, 13.6, 13.4), &out); code != 1 {
		t.Errorf("a 35%% slower p50 compared clean:\n%s", out.String())
	}
}
