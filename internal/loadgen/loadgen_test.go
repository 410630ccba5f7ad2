package loadgen

import (
	"bytes"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
	"hidb/internal/httpserver"
	"hidb/internal/session"
)

// testConfig is a run small enough for CI yet busy enough to exercise
// every outcome: a tight quota forces 429s, a tight in-flight bound plus
// full-table bad tokens force 503s, and the mix hits every endpoint.
func testConfig() Config {
	return Config{
		Sessions:    24,
		Ops:         6,
		Seed:        7,
		Dataset:     "adult",
		N:           600,
		K:           64,
		BatchWidth:  4,
		Latency:     2 * time.Millisecond,
		Think:       8 * time.Millisecond,
		Quota:       12,
		MaxInFlight: 8,
	}
}

// TestSimDeterministicArtifact is the loadgen acceptance claim: the same
// seed produces the same run, down to the artifact's bytes — sheds,
// rejections, percentiles and virtual elapsed time included.
func TestSimDeterministicArtifact(t *testing.T) {
	r1, err := RunSim(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a1, err := r1.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(a1); err != nil {
		t.Fatalf("artifact fails its own schema check: %v", err)
	}
	r2, err := RunSim(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r2.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatalf("same seed, different artifacts:\n--- run 1\n%s\n--- run 2\n%s", a1, a2)
	}
}

// TestSimMixedOpCoverage proves the schedule reaches every endpoint and
// every outcome class the QoS layer distinguishes.
func TestSimMixedOpCoverage(t *testing.T) {
	cfg := testConfig()
	rep, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Sessions * cfg.Ops; rep.Ops != want {
		t.Errorf("Ops = %d, want %d", rep.Ops, want)
	}
	if rep.OpQuery == 0 || rep.OpBatch == 0 || rep.OpCrawl == 0 || rep.OpAbort == 0 || rep.OpBadToken == 0 {
		t.Errorf("mix missed an endpoint: query=%d batch=%d crawl=%d abort=%d badtoken=%d",
			rep.OpQuery, rep.OpBatch, rep.OpCrawl, rep.OpAbort, rep.OpBadToken)
	}
	if rep.Errors != 0 {
		t.Errorf("sim run reported %d transport errors", rep.Errors)
	}
	if rep.Quota429 == 0 {
		t.Error("tight quota produced no 429s")
	}
	if rep.Shed503 == 0 {
		t.Error("tight in-flight bound and full table produced no 503s")
	}
	if rep.Aborted == 0 || rep.Resumed == 0 {
		t.Errorf("abort/resume path unexercised: aborted=%d resumed=%d", rep.Aborted, rep.Resumed)
	}
	if rep.Tuples == 0 {
		t.Error("no crawl tuples received")
	}
	if rep.PaidQueries == 0 {
		t.Error("no queries were paid for")
	}
	if len(rep.Latencies) == 0 {
		t.Error("no latency samples recorded")
	}
	if rep.Elapsed <= 0 {
		t.Errorf("virtual elapsed = %v, want > 0", rep.Elapsed)
	}
}

// TestSocketSelfServe smoke-tests the real-socket backend end to end on a
// loopback listener: tiny run, real sleeps.
func TestSocketSelfServe(t *testing.T) {
	cfg := Config{
		Sessions: 4,
		Ops:      3,
		Seed:     3,
		Dataset:  "adult",
		N:        200,
		Quota:    40,
		Think:    time.Millisecond,
	}
	rep, err := RunSocket(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("socket run reported %d errors", rep.Errors)
	}
	if want := cfg.Sessions * cfg.Ops; rep.Ops != want {
		t.Errorf("Ops = %d, want %d", rep.Ops, want)
	}
	if rep.PaidQueries == 0 {
		t.Error("no queries were paid for")
	}
	art, err := rep.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(art); err != nil {
		t.Errorf("socket artifact invalid: %v", err)
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestSocketReusesConnections: socket mode keeps one connection per
// session alive across ops, so a server sees at most one connection per
// session plus one per deliberate mid-stream hang-up (the hang-up closes
// its connection).
func TestSocketReusesConnections(t *testing.T) {
	cfg := Config{Sessions: 8, Ops: 12, Seed: 5, N: 300, Think: time.Millisecond}.withDefaults()
	ds, err := datagen.ByName(cfg.Dataset, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, max(cfg.K, ds.Tuples.MaxMultiplicity()), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	h := httpserver.New(local, httpserver.WithSessions(session.Config{MaxSessions: cfg.Sessions}), httpserver.WithShedding(0))
	ts := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	rep, err := RunSocket(cfg, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("socket run reported %d errors", rep.Errors)
	}
	if got, limit := ln.accepts.Load(), int64(cfg.Sessions+rep.Aborted); got > limit {
		t.Errorf("server accepted %d connections for %d sessions and %d hang-ups", got, cfg.Sessions, rep.Aborted)
	}
}

// TestValidateRejectsBadArtifacts pins the -check gate's failure modes.
func TestValidateRejectsBadArtifacts(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"benchmarks": [`,
		"empty":           `{"benchmarks": []}`,
		"missing metrics": `{"benchmarks": [{"name": "x", "iterations": 1, "metrics": {"ops": 1}}]}`,
		"nameless":        `{"benchmarks": [{"name": "", "iterations": 1, "metrics": {}}]}`,
	}
	for name, doc := range cases {
		if err := Validate([]byte(doc)); err == nil {
			t.Errorf("%s: Validate accepted %q", name, doc)
		}
	}
	rep := &Report{Name: "ok", Ops: 1, Latencies: []time.Duration{time.Millisecond}, Elapsed: time.Second}
	good, err := rep.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(good); err != nil {
		t.Errorf("Validate rejected a healthy artifact: %v", err)
	}
}
