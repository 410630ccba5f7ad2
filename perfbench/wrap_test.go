package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/httpserver"
	"hidb/internal/index"
	"hidb/internal/parallel"
	"hidb/internal/session"
)

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{N: 3000, CatDomains: []int{4, 6}, NumRanges: [][2]int64{{0, 99}, {0, 999}}, Skew: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// tracedStack builds the in-process stack the workloads trace: engine and
// Local wrappers under a call timer.
func tracedStack(t *testing.T, ds *datagen.Dataset, tr *tracer) (*callTimer, hiddendb.Server) {
	t.Helper()
	engine, err := index.New(ds.Schema, hiddendb.RankOrder(ds.Tuples, 1))
	if err != nil {
		t.Fatal(err)
	}
	local, err := hiddendb.NewLocalEngine(tracedEngine{engine, tr}, 32)
	if err != nil {
		t.Fatal(err)
	}
	srv := tracedLocal{local, tr}
	return newCallTimer(srv, tr), srv
}

// checkTrace checks that one traced crawl's spans form a tree under its
// root, that every layer below the root was seen, and that the layer
// shares add up to the crawl's wall time.
func checkTrace(t *testing.T, spans []span, kinds ...kind) *traceSummary {
	t.Helper()
	ids := map[int64]span{}
	for _, s := range spans {
		ids[s.id] = s
	}
	for _, s := range spans {
		if s.kind == kCrawl {
			continue
		}
		p, ok := ids[s.parent]
		if !ok || p.kind >= s.kind || s.req == 0 {
			t.Fatalf("%s span %d has parent %d (%s), request %d", kindNames[s.kind], s.id, s.parent, kindNames[p.kind], s.req)
		}
	}
	ts := summarize(spans, "crawl")
	if ts.crawls != 1 || ts.splitTotal() != ts.wall {
		t.Fatalf("%d crawls, layer shares add up to %d ns of %d", ts.crawls, ts.splitTotal(), ts.wall)
	}
	for _, k := range kinds {
		if ts.count[k] == 0 {
			t.Errorf("no %s spans", kindNames[k])
		}
	}
	return ts
}

func TestTracedSequentialCrawl(t *testing.T) {
	ds := testDataset(t)
	tr := newTracer()
	tr.on.Store(true)
	srv, _ := tracedStack(t, ds, tr)
	var res *core.Result
	var err error
	crawlRoot(config{tr: tr}, true, "crawl", func(ctx context.Context) {
		res, err = core.Hybrid{}.Crawl(ctx, srv, &core.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := newVerifier(ds.Tuples).check(res.Tuples); err != nil {
		t.Fatal(err)
	}
	ts := checkTrace(t, tr.all(), kCall, kLocal, kEngine)
	if ts.queries[kEngine] != int64(res.Queries) || len(srv.take().us) != res.Queries {
		t.Errorf("%d engine queries and %d timed calls for %d paid queries", ts.queries[kEngine], len(srv.us), res.Queries)
	}
}

func TestTracedParallelCrawl(t *testing.T) {
	ds := testDataset(t)
	tr := newTracer()
	tr.on.Store(true)
	srv, _ := tracedStack(t, ds, tr)
	var res *core.Result
	var err error
	crawlRoot(config{tr: tr}, true, "crawl", func(ctx context.Context) {
		res, err = parallel.Crawler{Workers: 8}.Crawl(ctx, srv, &core.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := newVerifier(ds.Tuples).check(res.Tuples); err != nil {
		t.Fatal(err)
	}
	ts := checkTrace(t, tr.all(), kCall, kLocal, kEngine)
	if ts.queries[kCall] != int64(res.Queries) {
		t.Errorf("calls carried %d queries, the crawl paid %d", ts.queries[kCall], res.Queries)
	}
}

func TestTracedRemoteCrawl(t *testing.T) {
	ds := testDataset(t)
	tr := newTracer()
	_, local := tracedStack(t, ds, tr)
	h := httpserver.New(local, httpserver.WithSessions(session.Config{}))
	hs := httptest.NewServer(tracedHandler{h, tr})
	defer hs.Close()
	tp := newTransport(1, tr)
	defer tp.close()
	cl, err := httpclient.DialToken(context.Background(), hs.URL, "t", &http.Client{Transport: tp})
	if err != nil {
		t.Fatal(err)
	}
	srv := newCallTimer(cl, tr)
	tr.on.Store(true)
	var res *core.Result
	crawlRoot(config{tr: tr}, true, "crawl", func(ctx context.Context) {
		res, err = parallel.Crawler{Workers: 4}.Crawl(ctx, srv, &core.Options{InFlight: 1})
	})
	tr.on.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := newVerifier(ds.Tuples).check(res.Tuples); err != nil {
		t.Fatal(err)
	}
	ts := checkTrace(t, tr.all(), kCall, kRT, kHandler, kLocal, kEngine)
	if len(ts.clientSelf) == 0 || len(ts.netDur) == 0 || len(ts.handlerSelf) == 0 || ts.aux[kRT] == 0 {
		t.Errorf("remote self times missing: client %d, net %d, handler %d, %d response bytes", len(ts.clientSelf), len(ts.netDur), len(ts.handlerSelf), ts.aux[kRT])
	}
	// Untraced too, the pooled connection is reused.
	if _, err := (parallel.Crawler{Workers: 4}).Crawl(context.Background(), srv, &core.Options{InFlight: 1}); err != nil {
		t.Fatal(err)
	}
	if d := tp.dials.Load(); d != 1 {
		t.Errorf("two crawls dialled %d connections, want 1", d)
	}
}
