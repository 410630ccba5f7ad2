package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/diskstore"
	"hidb/internal/hiddendb"
	"hidb/internal/index"
	"hidb/internal/parallel"
)

// The disk-100k workload: the Realistic tier of 100,000 rows behind a
// block cache of 103 blocks of 256 rows (26,368 rows), so the data is 3.8
// times the cache, and k = 100 keeps n/k at the 1,000 of a million rows at
// k = 1000.
const (
	diskTier        = datagen.Tier100K
	diskCacheBlocks = 103
	diskK           = 100
	diskWorkers     = 16
	diskWant        = 18799 // paid queries

	// diskTierSeed fixes the dataset for every workload seed; the
	// in-memory workloads carry the seed variation.
	diskTierSeed = 1
)

// diskStack is the set-up of the disk-100k workload: the generated relation
// in priority order and the store file built from it.
type diskStack struct {
	schema *dataspace.Schema
	tuples []dataspace.Tuple
	path   string
	store  *diskstore.Store
}

func setupDisk(cfg config, path string) (*diskStack, setupTimes, time.Duration, error) {
	var t setupTimes
	t0 := time.Now()
	ds := datagen.Tiered(datagen.PatternRealistic, diskTier, diskTierSeed)
	t1 := time.Now()
	err := diskstore.BuildRanked(path, ds.Schema, ds.Tuples, diskstore.BuildOptions{Bands: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, t, 0, err
	}
	t2 := time.Now()
	st := &diskStack{schema: ds.Schema, tuples: ds.Tuples, path: path}
	if st.store, err = diskstore.Open(path, diskstore.OpenOptions{CacheBlocks: diskCacheBlocks}); err != nil {
		return nil, t, 0, err
	}
	t3 := time.Now()
	return st, setupTimes{datagen: t1.Sub(t0), build: t3.Sub(t1)}, t2.Sub(t1), nil
}

func runDisk(cfg config, r *report) {
	path := filepath.Join(cfg.dir, "disk.store")
	defer os.Remove(path)
	var reps []setupTimes
	var builds, opens []float64
	var st *diskStack
	for range setupReps {
		if st != nil {
			st.store.Close()
			st = nil
		}
		runtime.GC()
		s, t, build, err := setupDisk(cfg, path)
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		st, reps = s, append(reps, t)
		builds = append(builds, build.Seconds())
		opens = append(opens, (t.build - build).Seconds())
	}
	r.setSetup(reps)
	logf("set up %d times", setupReps)
	defer func() {
		if st.store != nil {
			st.store.Close()
		}
	}()
	fi, err := os.Stat(path)
	if err != nil {
		r.fail("%v", err)
		return
	}
	userBytes := float64(len(st.tuples) * st.schema.Dims() * 8)
	crawler := parallel.Crawler{Workers: diskWorkers}
	ver := newVerifier(st.tuples)

	var paid []int // every crawl's paid queries
	var plan index.PlanStats
	var cache index.EngineStats
	var resolved, tuples int
	var g goDelta // over the untraced crawls
	// diskCrawl runs one verified crawl on a freshly opened store: a cold
	// block cache over a warm page cache.
	diskCrawl := func(tr bool) (time.Duration, callStats, bool) {
		if st.store != nil {
			st.store.Close()
		}
		t0 := time.Now()
		st.store, err = diskstore.Open(st.path, diskstore.OpenOptions{CacheBlocks: diskCacheBlocks})
		opens = append(opens, time.Since(t0).Seconds())
		if !r.check(err == nil, "open: %v", err) {
			return 0, callStats{}, false
		}
		local, err := newLocal(cfg.tr, st.store, diskK)
		if !r.check(err == nil, "server: %v", err) {
			return 0, callStats{}, false
		}
		srv := newCallTimer(local, cfg.tr)
		runtime.GC()
		var res *core.Result
		var d time.Duration
		g0 := snapGo()
		crawlRoot(cfg, tr, "crawl", func(ctx context.Context) {
			t0 := time.Now()
			res, err = crawler.Crawl(ctx, srv, &core.Options{})
			d = time.Since(t0)
		})
		if !tr {
			g.add(g0, snapGo())
		}
		cs := srv.take()
		if !r.check(err == nil, "disk crawl: %v", err) {
			return 0, callStats{}, false
		}
		logf("disk crawl: %v, %d queries", d, res.Queries)
		if err := ver.check(res.Tuples); err != nil {
			r.fail("disk crawl: %v", err)
		}
		r.check(res.Queries == diskWant, "disk crawl paid %d queries, the reference is %d", res.Queries, diskWant)
		paid = append(paid, res.Queries)
		plan.Merge(st.store.PlanStats())
		es := st.store.EngineStats()
		cache.CacheHits += es.CacheHits
		cache.CacheMisses += es.CacheMisses
		resolved, tuples = res.Resolved, len(res.Tuples)
		return d, cs, true
	}

	var untraced, traced, tps, ops []float64
	var rts [][]float64 // per crawl
	var calls []callStats
	var walls float64
	crawls := 0
	measureLoop(cfg, func(tr bool) {
		d, cs, ok := diskCrawl(tr)
		if !ok {
			return
		}
		crawls++
		if tr {
			traced = append(traced, d.Seconds()*1e3)
			return
		}
		untraced = append(untraced, d.Seconds()*1e3)
		tps = append(tps, float64(tuples)/d.Seconds())
		ops = append(ops, float64(paid[len(paid)-1])/d.Seconds())
		rts = append(rts, cs.us)
		calls = append(calls, cs)
		walls += d.Seconds()
	})
	if len(paid) == 0 {
		r.fail("no disk crawl completed")
		return
	}
	queries := paid[len(paid)-1]
	r.set("crawl_ms_p50", median(untraced), len(untraced))
	r.set("tuples_per_s", median(tps), len(tps))
	r.set("queries_per_crawl", float64(queries), 0)
	r.setMedianPct("rt_us_p50", rts, 50)
	r.setMedianPct("rt_us_p99", rts, 99)
	r.set("ops_per_s", median(ops), len(ops))
	r.set("peak_rss_mb", peakRSSMB(), 0)

	// The disk engine must pay exactly what the in-memory sharded engine
	// pays over the same ranks. This runs after the measured crawls so its
	// memory does not show in peak_rss_mb.
	if st.store != nil {
		st.store.Close()
		st.store = nil
	}
	sharded, err := index.NewSharded(st.schema, st.tuples, runtime.GOMAXPROCS(0))
	if !r.check(err == nil, "sharded engine: %v", err) {
		return
	}
	memLocal, _ := hiddendb.NewLocalEngine(sharded, diskK)
	memRes, err := crawler.Crawl(context.Background(), memLocal, &core.Options{})
	if r.check(err == nil, "sharded crawl: %v", err) {
		if err := ver.check(memRes.Tuples); err != nil {
			r.fail("sharded crawl: %v", err)
		}
		for _, q := range paid {
			r.check(q == memRes.Queries, "disk crawl paid %d queries, the sharded crawl paid %d", q, memRes.Queries)
		}
		logf("sharded crawl paid %d queries", memRes.Queries)
	}

	r.zeroLayers("session.", "httpclient.dials", "httpserver.shed", "httpserver.replay")
	r.setPlan(plan, float64(crawls))
	lookups := float64(cache.CacheHits + cache.CacheMisses)
	r.set("diskstore.cache_hit_rate", ratio(float64(cache.CacheHits), lookups), crawls)
	r.set("diskstore.cache_misses_per_query", ratio(float64(cache.CacheMisses), float64(queries*crawls)), crawls)
	r.set("diskstore.build_s", median(builds), len(builds))
	r.set("diskstore.open_s", median(opens), len(opens))
	r.set("diskstore.file_bytes", float64(fi.Size()), 0)
	r.set("diskstore.bytes_per_user_byte", float64(fi.Size())/userBytes, 0)
	r.set("core.resolved_frac", ratio(float64(resolved), float64(queries)), 0)
	r.set("core.tuples_per_query", ratio(float64(tuples), float64(queries)), 0)
	r.setGo(g, float64(queries*len(untraced)), float64(len(untraced)))
	idle := 0.0
	if cfg.tr != nil {
		spans := cfg.tr.all()
		ts := summarize(spans, "crawl")
		r.setTrace(ts, len(spans))
		idle = ratio(float64(ts.split[kCrawl]), float64(ts.wall))
		r.set("trace.overhead_frac", median(traced)/median(untraced)-1, len(traced))
	}
	r.setParallel(calls, walls, idle)
}
