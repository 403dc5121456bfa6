package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qrel"
	"qrel/internal/ra"
	"qrel/internal/store"
)

// storePageSize is the page size of every store file the benchmark
// builds: 4 KiB, stated so the file size is comparable across runs.
const storePageSize = 4096

// pipeline is the E13 scan→select→join: edges that are not loops,
// joined with the labels on their target.
var pipeline = ra.Join{
	L: ra.Select{From: ra.Base{Rel: "E", Attrs: []string{"x", "y"}}, Attr: "x", Other: "y", Elem: -1, Negate: true},
	R: ra.Base{Rel: "S", Attrs: []string{"y"}},
}

// poolDelta is what one pipeline pass did to a store's buffer pool.
type poolDelta struct{ hits, misses, evictions uint64 }

type storeInstance struct {
	sz        sizes
	db        *qrel.DB
	path      string // the file the read operations use
	buildPath string // the file the repeated builds overwrite
	tuples    int    // stored tuples, all relations
	userBytes int64
	fileBytes int64
	wantRows  int // rows the pipeline must return from every source
	fit       *store.Store
	small     *store.Store
	passes    map[string][]poolDelta
}

func setupStore(e *env) (instance, error) {
	in := &storeInstance{sz: e.sz, passes: map[string][]poolDelta{}}
	in.db = storeDB(subRNG(e.seed, 30), e.sz.StoreN, e.sz.StoreDraws, e.sz.StoreUncertain)
	in.path = filepath.Join(e.dir, "read.qstore")
	in.buildPath = filepath.Join(e.dir, "build.qstore")
	// The reference row count, straight from the generated tuples.
	for _, t := range in.db.A.Rel("E").Tuples() {
		if t[0] != t[1] && in.db.A.Holds("S", qrel.Tuple{t[1]}) {
			in.wantRows++
		}
	}
	edges, labels := in.db.A.Rel("E").Len(), in.db.A.Rel("S").Len()
	in.tuples = edges + labels
	// User bytes: 4 bytes per tuple component, and per μ record its
	// tuple plus 8 bytes of probability.
	in.userBytes = int64(edges)*2*4 + int64(labels)*4 + int64(in.db.NumUncertain())*(2*4+8)
	if err := in.build(&call{}, in.path); err != nil {
		return nil, err
	}
	fi, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.fileBytes = fi.Size()
	if in.fit, err = store.Open(in.path, store.Options{PoolBytes: e.sz.PoolFit}); err != nil {
		return nil, err
	}
	if in.small, err = store.Open(in.path, store.Options{PoolBytes: e.sz.PoolSmall}); err != nil {
		in.close()
		return nil, err
	}
	// After the warm-up pass the fitting pool is hot.
	if err := in.rotation().warmUp(); err != nil {
		in.close()
		return nil, err
	}
	in.passes = map[string][]poolDelta{}
	return in, nil
}

// build ingests the database into a new file with journalled commits
// every StoreBatch tuples — the writes of this workload.
func (in *storeInstance) build(c *call, path string) error {
	id := c.begin("store.BuildFromDB")
	defer c.end(id)
	return store.BuildFromDB(path, in.db, store.Options{PageSize: storePageSize}, in.sz.StoreBatch, nil)
}

// open opens the read file with the default pool under a span.
func (in *storeInstance) open(c *call) (*store.Store, error) {
	id := c.begin("store.Open")
	defer c.end(id)
	return store.Open(in.path, store.Options{})
}

// drain runs the pipeline over a source and checks the row count.
func (in *storeInstance) drain(c *call, src ra.Source) error {
	id := c.begin("ra.Build")
	it, _, err := ra.Build(src, pipeline)
	c.end(id)
	if err != nil {
		return err
	}
	defer it.Close()
	id = c.begin("ra.drain")
	defer c.end(id)
	rows := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows++
	}
	if rows != in.wantRows {
		return fmt.Errorf("pipeline returned %d rows, the generated tuples give %d", rows, in.wantRows)
	}
	return nil
}

// drainPaged drains over a store and keeps what the pass did to its pool.
func (in *storeInstance) drainPaged(c *call, which string, s *store.Store) error {
	before := s.Stats()
	err := in.drain(c, s)
	after := s.Stats()
	in.passes[which] = append(in.passes[which], poolDelta{
		after.Hits - before.Hits, after.Misses - before.Misses, after.Evictions - before.Evictions})
	return err
}

func (in *storeInstance) rotation() rotation {
	kinds := []op{
		{name: "build", run: func(c *call) error { return in.build(c, in.buildPath) }},
		{name: "open-verify", run: func(c *call) error {
			s, err := in.open(c)
			if err != nil {
				return err
			}
			defer s.Close()
			id := c.begin("store.Verify")
			vs, err := s.Verify()
			c.end(id)
			if err != nil {
				return err
			}
			if int(vs.Tuples) != in.tuples || int(vs.MuRecords) != in.db.NumUncertain() {
				return fmt.Errorf("verify saw %d tuples and %d mu records, generated %d and %d",
					vs.Tuples, vs.MuRecords, in.tuples, in.db.NumUncertain())
			}
			return nil
		}},
		{name: "open-load", run: func(c *call) error {
			s, err := in.open(c)
			if err != nil {
				return err
			}
			defer s.Close()
			id := c.begin("store.LoadDB")
			db, err := s.LoadDB()
			c.end(id)
			if err != nil {
				return err
			}
			if db.A.FactCount() != in.tuples || db.NumUncertain() != in.db.NumUncertain() {
				return fmt.Errorf("loaded %d facts and %d uncertain atoms, generated %d and %d",
					db.A.FactCount(), db.NumUncertain(), in.tuples, in.db.NumUncertain())
			}
			return nil
		}},
		{name: "pipeline-memory", run: func(c *call) error { return in.drain(c, ra.StructureSource(in.db.A)) }},
		{name: "pipeline-paged-fit", run: func(c *call) error { return in.drainPaged(c, "fit", in.fit) }},
		{name: "pipeline-paged-small", run: func(c *call) error { return in.drainPaged(c, "small", in.small) }},
	}
	// Sorted by cost: open-verify ×3, then pipeline-paged-fit ×2 and
	// pipeline-paged-small ×2 (near-equal; together they span the 30th to
	// 70th percentile, so p50 is their common median), open-load,
	// pipeline-memory, build ×1 (p95 is its median: the writes).
	return newRotation(kinds, 0,
		"open-verify", "pipeline-paged-fit", "open-load", "pipeline-paged-small", "open-verify",
		"pipeline-memory", "pipeline-paged-fit", "build", "open-verify", "pipeline-paged-small")
}

func (in *storeInstance) layers(rec *recorder, res *loopResult, _ time.Duration, m map[string]float64) error {
	// One StoreBatch-tuple journalled commit on a fresh file.
	edges := in.db.A.Rel("E").Tuples()
	if len(edges) > in.sz.StoreBatch {
		edges = edges[:in.sz.StoreBatch]
	}
	commitPath := filepath.Join(filepath.Dir(in.path), "commit.qstore")
	var commits []time.Duration
	for i := 0; i < 5; i++ {
		s, err := store.Create(commitPath, in.db.A, store.Options{PageSize: storePageSize})
		if err != nil {
			return err
		}
		for _, t := range edges {
			if err := s.AddTuple("E", t); err != nil {
				s.Close()
				return err
			}
		}
		id := rec.begin("store.Commit", -1, -1)
		t := time.Now()
		err = s.Commit()
		commits = append(commits, time.Since(t))
		rec.end(id)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	m["store.commit_ms"] = ms(median(commits))
	m["store.open_ms"] = ms(spanMedian(rec, "store.Open"))
	m["store.verify_ms"] = ms(spanMedian(rec, "store.Verify"))

	kind := func(name string) time.Duration { return res.kindMedian(res.kindIndex(name), false) }
	m["store.load_db_ms"] = ms(kind("open-load"))
	m["store.ingest_tuples_per_s"] = float64(in.tuples) / kind("build").Seconds()
	// Both pool sizes pooled: the paged pipeline's input rate.
	paged := res.latencies(func(s sample) bool {
		return !s.traced && (s.kind == res.kindIndex("pipeline-paged-fit") || s.kind == res.kindIndex("pipeline-paged-small"))
	})
	m["store.scan_tuples_per_s"] = float64(in.tuples) / median(paged).Seconds()
	m["store.bytes_per_user_byte"] = float64(in.fileBytes) / float64(in.userBytes)
	m["ra.pipeline_tuples_per_s.memory"] = float64(in.tuples) / kind("pipeline-memory").Seconds()
	m["ra.pipeline_tuples_per_s.paged_fit"] = float64(in.tuples) / kind("pipeline-paged-fit").Seconds()
	m["ra.pipeline_tuples_per_s.paged_small"] = float64(in.tuples) / kind("pipeline-paged-small").Seconds()

	// Exact counts from Store.Stats(), averaged over the passes.
	mean := func(which string, f func(poolDelta) uint64) float64 {
		var sum uint64
		for _, p := range in.passes[which] {
			sum += f(p)
		}
		return float64(sum) / float64(len(in.passes[which]))
	}
	ratio := func(which string) float64 {
		h := mean(which, func(p poolDelta) uint64 { return p.hits })
		return h / (h + mean(which, func(p poolDelta) uint64 { return p.misses }))
	}
	m["store.pool_hit_ratio.fit"] = ratio("fit")
	m["store.pool_hit_ratio.small"] = ratio("small")
	m["store.misses_per_scan"] = mean("small", func(p poolDelta) uint64 { return p.misses })
	m["store.evictions_per_scan.small"] = mean("small", func(p poolDelta) uint64 { return p.evictions })
	addSelfShares(rec, m)
	return nil
}

func (in *storeInstance) close() {
	if in.fit != nil {
		in.fit.Close()
	}
	if in.small != nil {
		in.small.Close()
	}
}
