package main

import (
	"context"
	"runtime"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
	"hidb/internal/index"
)

// paperCrawl is one in-process crawl of the paper-crawl workload.
type paperCrawl struct {
	alg     string
	dataset string
	k       int
	want    int // paid queries at the default seed
}

// paperCrawls is the paper's own evaluation traffic at paper sizes.
var paperCrawls = []paperCrawl{
	{"binary-shrink", "adult-numeric", 64, 3419},
	{"rank-shrink", "adult-numeric", 64, 2570},
	{"slice-cover", "nsf", 256, 36326},
	{"lazy-slice-cover", "nsf", 128, 5868},
	{"hybrid", "yahoo", 256, 1064},
	{"hybrid", "adult", 256, 778},
}

// paperStack is the set-up of the paper-crawl workload: one in-memory
// engine per dataset and one hiddendb.Local per crawl.
type paperStack struct {
	datasets map[string]*datagen.Dataset
	engines  map[string]index.Engine
	servers  []hiddendb.Server
}

func setupPaper(cfg config) (*paperStack, setupTimes, error) {
	var t setupTimes
	st := &paperStack{datasets: map[string]*datagen.Dataset{}, engines: map[string]index.Engine{}}
	t0 := time.Now()
	for _, c := range paperCrawls {
		if st.datasets[c.dataset] != nil {
			continue
		}
		ds, err := datagen.ByName(c.dataset, 0, cfg.dataSeed())
		if err != nil {
			return nil, t, err
		}
		st.datasets[c.dataset] = ds
	}
	t1 := time.Now()
	for name, ds := range st.datasets {
		e, err := index.New(ds.Schema, hiddendb.RankOrder(ds.Tuples, cfg.prioritySeed()))
		if err != nil {
			return nil, t, err
		}
		st.engines[name] = e
	}
	t2 := time.Now()
	for _, c := range paperCrawls {
		srv, err := newLocal(cfg.tr, st.engines[c.dataset], c.k)
		if err != nil {
			return nil, t, err
		}
		st.servers = append(st.servers, srv)
	}
	t3 := time.Now()
	return st, setupTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}, nil
}

func runPaper(cfg config, r *report) {
	var reps []setupTimes
	var st *paperStack
	for range setupReps {
		st = nil
		runtime.GC()
		s, t, err := setupPaper(cfg)
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		st, reps = s, append(reps, t)
	}
	r.setSetup(reps)
	verifiers := map[string]*verifier{}
	for name, ds := range st.datasets {
		verifiers[name] = newVerifier(ds.Tuples)
	}
	crawlers := make([]core.Crawler, len(paperCrawls))
	for i, c := range paperCrawls {
		var err error
		if crawlers[i], err = core.ByName(c.alg); err != nil {
			r.fail("%v", err)
			return
		}
	}

	firstQueries := make([]int, len(paperCrawls))
	var passQueries, passTuples, passResolved int
	// pass runs every crawl once and returns the summed crawl time and the
	// calls it made; verification is not timed.
	pass := func(traced bool) (time.Duration, []float64) {
		var wall time.Duration
		var calls []float64
		passQueries, passTuples, passResolved = 0, 0, 0
		for i, c := range paperCrawls {
			srv := newCallTimer(st.servers[i], cfg.tr)
			var res *core.Result
			var err error
			var d time.Duration
			crawlRoot(cfg, traced, "crawl", func(ctx context.Context) {
				t0 := time.Now()
				res, err = crawlers[i].Crawl(ctx, srv, &core.Options{})
				d = time.Since(t0)
			})
			wall += d
			calls = append(calls, srv.take().us...)
			if !r.check(err == nil, "%s on %s: %v", c.alg, c.dataset, err) {
				continue
			}
			if err := verifiers[c.dataset].check(res.Tuples); err != nil {
				r.fail("%s on %s: %v", c.alg, c.dataset, err)
			}
			if firstQueries[i] == 0 {
				firstQueries[i] = res.Queries
				if cfg.defaultSeed() {
					r.check(res.Queries == c.want, "%s on %s paid %d queries, the reference is %d", c.alg, c.dataset, res.Queries, c.want)
				}
			}
			r.check(res.Queries == firstQueries[i], "%s on %s paid %d queries, an earlier crawl paid %d", c.alg, c.dataset, res.Queries, firstQueries[i])
			passQueries += res.Queries
			passTuples += len(res.Tuples)
			passResolved += res.Resolved
		}
		return wall, calls
	}
	pass(false) // warm-up

	plan0 := paperPlan(st)
	var untraced, traced []float64 // per-crawl ms, one sample per pass
	var tps, ops []float64
	var rts [][]float64 // per pass
	var g goDelta
	passes := 0
	measureLoop(cfg, func(tr bool) {
		g0 := snapGo()
		wall, calls := pass(tr)
		g1 := snapGo()
		passes++
		perCrawl := float64(wall) / 1e6 / float64(len(paperCrawls))
		if tr {
			traced = append(traced, perCrawl)
			return
		}
		g.add(g0, g1)
		untraced = append(untraced, perCrawl)
		tps = append(tps, float64(passTuples)/wall.Seconds())
		ops = append(ops, float64(passQueries)/wall.Seconds())
		rts = append(rts, calls)
	})
	crawls := float64(len(paperCrawls))
	r.set("crawl_ms_p50", median(untraced), len(untraced))
	r.set("tuples_per_s", median(tps), len(tps))
	r.set("queries_per_crawl", float64(passQueries)/crawls, 0)
	r.setMedianPct("rt_us_p50", rts, 50)
	r.setMedianPct("rt_us_p99", rts, 99)
	r.set("ops_per_s", median(ops), len(ops))
	r.set("peak_rss_mb", peakRSSMB(), 0)

	r.zeroLayers("parallel.", "diskstore.", "session.", "httpclient.dials", "httpserver.shed", "httpserver.replay")
	r.setPlan(planDelta(plan0, paperPlan(st)), float64(passes)*crawls)
	r.set("core.resolved_frac", ratio(float64(passResolved), float64(passQueries)), 0)
	r.set("core.tuples_per_query", ratio(float64(passTuples), float64(passQueries)), 0)
	r.setGo(g, float64(passQueries*len(untraced)), crawls*float64(len(untraced)))
	if cfg.tr != nil {
		spans := cfg.tr.all()
		r.setTrace(summarize(spans, "crawl"), len(spans))
		r.set("trace.overhead_frac", median(traced)/median(untraced)-1, len(traced))
	}
}

// paperPlan sums the planner counters of the workload's engines.
func paperPlan(st *paperStack) index.PlanStats {
	var ps index.PlanStats
	for _, e := range st.engines {
		ps.Merge(e.PlanStats())
	}
	return ps
}
