package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := newDist(xs).pct(c.p); got != c.want {
			t.Errorf("p%g of %v = %g, want %g", c.p, xs, got, c.want)
		}
	}
	if got := newDist([]float64{3, 1, 2, 4}).pct(50); got != 2 {
		t.Errorf("p50 of an even-sized set = %g, want the lower middle sample 2", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := newDist(hundred).pct(99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	r := newReport()
	r.setPct("rt_us_p99", []float64{4, 1, 3, 2}, 99)
	if m := r.metrics["rt_us_p99"]; m.v != 4 || m.n != 4 {
		t.Fatalf("rt_us_p99 = %+v, want value 4 from 4 samples", m)
	}
	var out bytes.Buffer
	r.print(&out, false)
	if !strings.Contains(out.String(), "rt_us_p99") || !strings.Contains(out.String(), "n=4") {
		t.Errorf("the table does not show rt_us_p99 with its sample count:\n%s", out.String())
	}
}

func TestMedianOfPerSamplePercentiles(t *testing.T) {
	r := newReport()
	// One slowed crawl does not move the median of the per-crawl medians.
	r.setMedianPct("rt_us_p50", [][]float64{{1, 2, 3}, {2, 3, 4}, {20, 30, 40}}, 50)
	if m := r.metrics["rt_us_p50"]; m.v != 3 || m.n != 9 {
		t.Fatalf("rt_us_p50 = %+v, want 3 from 9 values", m)
	}
}

func TestMissingMetricFailsTheRun(t *testing.T) {
	r := newReport()
	var out bytes.Buffer
	r.print(&out, false)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != len(endToEnd) || res.Attempted != len(endToEnd) {
		t.Errorf("a run that measured nothing reported %+v", res)
	}
}

// The metric lists printed by the command are the ones BENCHMARK.json
// declares, in order and with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}
