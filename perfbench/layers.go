package main

import (
	"strings"

	"hidb/internal/index"
)

// zeroLayers sets every per-layer metric under the given prefixes to 0: the
// workload does not use those layers, so they did no work.
func (r *report) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0, 0)
			}
		}
	}
}

// setTrace reports the per-layer figures of the traced crawls.
func (r *report) setTrace(ts *traceSummary, spans int) {
	wall := float64(ts.wall)
	n := ts.crawls
	frac := func(k kind) float64 { return ratio(float64(ts.split[k]), wall) }
	r.set("index.busy_frac", ratio(float64(ts.busy[kEngine]), wall), n)
	r.set("index.wall_frac", frac(kEngine), n)
	r.pctOr0("index.select_us_p50", ts.engineDur, 50)
	r.pctOr0("index.select_us_p99", ts.engineDur, 99)
	r.set("index.selects_per_crawl", ratio(float64(ts.queries[kEngine]), float64(n)), n)
	r.set("index.rows_per_select", ratio(float64(ts.aux[kEngine]), float64(ts.queries[kEngine])), n)
	r.pctOr0("hiddendb.self_us_p50", ts.localSelf, 50)
	r.set("hiddendb.wall_frac", frac(kLocal), n)
	r.set("core.self_frac", frac(kCrawl), n)
	r.set("httpclient.wall_frac", frac(kCall), n)
	r.set("httpclient.net_frac", frac(kRT), n)
	r.set("httpserver.wall_frac", frac(kHandler), n)
	r.pctOr0("httpclient.roundtrip_us_p50", ts.rtDur, 50)
	r.pctOr0("httpclient.self_us_p50", ts.clientSelf, 50)
	r.pctOr0("httpclient.net_us_p50", ts.netDur, 50)
	remoteQueries := 0.0
	if ts.count[kRT] > 0 {
		remoteQueries = float64(ts.queries[kCall])
	}
	r.set("httpclient.req_bytes_per_query", ratio(float64(ts.reqBytes), remoteQueries), n)
	r.set("httpclient.resp_bytes_per_query", ratio(float64(ts.aux[kRT]), remoteQueries), n)
	r.pctOr0("httpserver.handler_us_p50", ts.handlerDur, 50)
	r.pctOr0("httpserver.self_us_p50", ts.handlerSelf, 50)
	r.set("trace.split_sum_frac", ratio(float64(ts.splitTotal()), wall), n)
	r.set("trace.spans", float64(spans), 0)
	r.check(ts.crawls > 0 && ts.splitTotal() == ts.wall,
		"layer shares of %d traced crawls add up to %d ns, their wall time is %d ns", ts.crawls, ts.splitTotal(), ts.wall)
}

// planDelta is the planner counters' growth between two snapshots.
func planDelta(from, to index.PlanStats) index.PlanStats {
	d := index.PlanStats{Hits: to.Hits - from.Hits, Misses: to.Misses - from.Misses, Paths: map[string]int64{}}
	for p, v := range to.Paths {
		d.Paths[p] = v - from.Paths[p]
	}
	return d
}

// setPlan reports the planner's per-crawl access-path counts and plan-cache
// hit rate over crawls crawls.
func (r *report) setPlan(d index.PlanStats, crawls float64) {
	for _, p := range []string{"scan", "posting", "gallop", "range", "bitmap"} {
		r.set("index.path."+p, ratio(float64(d.Paths[p]), crawls), 0)
	}
	r.set("index.plan_hit_rate", d.HitRate(), 0)
}

// setParallel reports the parallel crawler's round-trip figures from the
// calls of crawls crawls lasting wall in total.
func (r *report) setParallel(calls []callStats, wallSeconds float64, idleFrac float64) {
	var trips, queries, busy float64
	for _, c := range calls {
		trips += float64(len(c.us))
		queries += float64(c.queries)
		busy += c.busy.Seconds()
	}
	n := float64(len(calls))
	r.set("parallel.trips_per_crawl", ratio(trips, n), len(calls))
	r.set("parallel.batch_width_mean", ratio(queries, trips), len(calls))
	r.set("parallel.inflight_mean", ratio(busy, wallSeconds), len(calls))
	r.set("parallel.idle_frac", idleFrac, len(calls))
}
