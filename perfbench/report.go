package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// metricDef names a metric and its unit. The two lists below are the
// metrics BENCHMARK.json declares: every run prints every end-to-end metric
// (untraced) or every per-layer metric (traced), in this order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"crawl_ms_p50", "ms"},
	{"tuples_per_s", "1/s"},
	{"queries_per_crawl", "count"},
	{"rt_us_p50", "us"},
	{"rt_us_p99", "us"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"index.busy_frac", "ratio"},
	{"index.wall_frac", "ratio"},
	{"index.select_us_p50", "us"},
	{"index.select_us_p99", "us"},
	{"index.selects_per_crawl", "count"},
	{"index.rows_per_select", "count"},
	{"index.path.scan", "count"},
	{"index.path.posting", "count"},
	{"index.path.gallop", "count"},
	{"index.path.range", "count"},
	{"index.path.bitmap", "count"},
	{"index.plan_hit_rate", "ratio"},
	{"diskstore.cache_hit_rate", "ratio"},
	{"diskstore.cache_misses_per_query", "count"},
	{"diskstore.build_s", "s"},
	{"diskstore.open_s", "s"},
	{"diskstore.file_bytes", "B"},
	{"diskstore.bytes_per_user_byte", "ratio"},
	{"hiddendb.self_us_p50", "us"},
	{"hiddendb.wall_frac", "ratio"},
	{"core.self_frac", "ratio"},
	{"core.resolved_frac", "ratio"},
	{"core.tuples_per_query", "ratio"},
	{"parallel.trips_per_crawl", "count"},
	{"parallel.batch_width_mean", "count"},
	{"parallel.inflight_mean", "count"},
	{"parallel.idle_frac", "ratio"},
	{"httpclient.roundtrip_us_p50", "us"},
	{"httpclient.self_us_p50", "us"},
	{"httpclient.net_us_p50", "us"},
	{"httpclient.wall_frac", "ratio"},
	{"httpclient.net_frac", "ratio"},
	{"httpclient.dials_per_loop", "count"},
	{"httpclient.req_bytes_per_query", "B"},
	{"httpclient.resp_bytes_per_query", "B"},
	{"httpserver.handler_us_p50", "us"},
	{"httpserver.self_us_p50", "us"},
	{"httpserver.replay_us_p50", "us"},
	{"httpserver.wall_frac", "ratio"},
	{"httpserver.shed_503", "count"},
	{"session.fresh_ms_p50", "ms"},
	{"session.fresh_ms_p99", "ms"},
	{"session.replay_ms_p50", "ms"},
	{"session.replay_ms_p99", "ms"},
	{"session.stream_first_ms_p50", "ms"},
	{"session.resume_first_ms_p50", "ms"},
	{"session.replays_per_crawl", "count"},
	{"session.journal_len", "count"},
	{"go.alloc_bytes_per_query", "B"},
	{"go.gc_cycles_per_s", "1/s"},
	{"go.cpu_s_per_crawl", "s"},
	{"setup.datagen_s", "s"},
	{"setup.index_build_s", "s"},
	{"setup.server_start_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.split_sum_frac", "ratio"},
}

// value is one reported metric: its value and how many samples it was
// computed from (0 for a count that is not a statistic over samples).
type value struct {
	v float64
	n int
}

// report collects a run's metrics and the outcome of every check.
type report struct {
	metrics   map[string]value
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]value{}} }

// set records a metric computed from n samples.
func (r *report) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

// check counts one verified operation; a false ok counts it as failed and
// records the reason.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records a failed operation.
func (r *report) fail(format string, args ...any) { r.check(false, format, args...) }

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes a human-readable table (name, value, unit, sample count) of
// the chosen metric set and then the result line. A metric the workload
// failed to produce is a failure.
func (r *report) print(w io.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			r.fail("metric %s was not measured", d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: m.v, Unit: d.unit}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	rows := append(slices.Clone(defs), metricDef{"failed_frac", "ratio"})
	r.metrics["failed_frac"] = value{failedFrac, r.attempted}
	if !traced {
		// Workload-specific figures that are per-layer metrics in
		// BENCHMARK.json are shown here too, measured untraced.
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "session.") || d.name == "diskstore.bytes_per_user_byte" {
				rows = append(rows, d)
			}
		}
	}
	for _, d := range rows {
		if m, ok := r.metrics[d.name]; ok {
			fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", d.name, m.v, d.unit, m.n)
		}
	}
	res.Correct = r.failed == 0
	res.Attempted = max(r.attempted, 1)
	res.Failed = r.failed
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// dist is a sorted sample set.
type dist []float64

func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100): the smallest
// sample with at least p percent of the samples at or below it. It is NaN
// for an empty set, so a metric with no samples is reported as missing.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	return d[min(max(rank, 1), len(d))-1]
}

// setPct records the p-th percentile of xs as name, with the sample count.
func (r *report) setPct(name string, xs []float64, p float64) {
	r.set(name, newDist(xs).pct(p), len(xs))
}

// setMedianPct records as name the median over samples of each sample's
// p-th percentile, with the total number of values. A sample is one crawl
// (one pass on paper-crawl), so one crawl slowed by the machine moves the
// figure less than it would move a percentile over all values pooled.
func (r *report) setMedianPct(name string, samples [][]float64, p float64) {
	per := make([]float64, len(samples))
	n := 0
	for i, s := range samples {
		per[i] = newDist(s).pct(p)
		n += len(s)
	}
	r.set(name, median(per), n)
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pctOr0 is setPct for a layer a workload may not use: no samples is 0.
func (r *report) pctOr0(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		r.set(name, 0, 0)
		return
	}
	r.setPct(name, xs, p)
}
