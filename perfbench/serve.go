package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/httpclient"
	"hidb/internal/httpserver"
	"hidb/internal/index"
	"hidb/internal/parallel"
	"hidb/internal/session"
	"hidb/internal/wire"
)

const (
	serveN           = 20000
	serveK           = 64
	serveClients     = 2
	serveWorkers     = 16
	serveMaxSessions = 16
	serveWant        = 1470 // paid queries at the default seed
	streamAlgorithm  = "hybrid"
)

// serveStack is the set-up of the serve-mixed workload: a loopback
// httpserver with sessions over one in-memory engine, and a pooled
// transport for the clients.
type serveStack struct {
	ds      *datagen.Dataset
	engine  index.Engine
	handler *httpserver.Handler
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	base    string
	tp      *transport
	hc      *http.Client
}

func (s *serveStack) close() {
	s.hs.Close()
	<-s.served
	s.tp.close()
}

func setupServe(cfg config) (*serveStack, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	ds, err := datagen.ByName("adult", serveN, cfg.dataSeed())
	if err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	engine, err := index.New(ds.Schema, hiddendb.RankOrder(ds.Tuples, cfg.prioritySeed()))
	if err != nil {
		return nil, t, err
	}
	t2 := time.Now()
	srv, err := newLocal(cfg.tr, engine, serveK)
	if err != nil {
		return nil, t, err
	}
	st := &serveStack{ds: ds, engine: engine}
	st.handler = httpserver.New(srv, httpserver.WithSessions(session.Config{MaxSessions: serveMaxSessions}))
	var h http.Handler = st.handler
	if cfg.tr != nil {
		h = tracedHandler{h, cfg.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, t, err
	}
	st.hs = &http.Server{Handler: h}
	st.served = make(chan struct{})
	go func() {
		st.hs.Serve(ln)
		close(st.served)
	}()
	st.base = "http://" + ln.Addr().String()
	st.tp = newTransport(serveClients, cfg.tr)
	st.hc = &http.Client{Transport: st.tp}
	for c := range serveClients {
		if _, err := httpclient.DialToken(context.Background(), st.base, fmt.Sprintf("setup-%d", c), st.hc); err != nil {
			st.close()
			return nil, t, err
		}
	}
	t3 := time.Now()
	return st, setupTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}, nil
}

// sessionStats fetches one token's counters from GET /stats.
func (s *serveStack) sessionStats(token string) (wire.SessionStatsMsg, error) {
	resp, err := s.hc.Get(s.base + "/stats")
	if err != nil {
		return wire.SessionStatsMsg{}, err
	}
	defer resp.Body.Close()
	var msg wire.StatsMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		return wire.SessionStatsMsg{}, err
	}
	for _, ss := range msg.Sessions {
		if ss.Token == token {
			return ss, nil
		}
	}
	return wire.SessionStatsMsg{}, fmt.Errorf("token %s has no live session", token)
}

// loop is what one client iteration measured.
type loop struct {
	fresh, replay callStats // the /batch calls of the paid and the replayed crawl
	freshWall     time.Duration
	paid          int // queries the fresh crawl paid
	resolved      int
	streamFirst   time.Duration // POST /crawl to its first tuple
	resumeFirst   time.Duration // reconnect with the cursor to its first tuple
	replays       int           // journal replays the repeated crawl added in /stats
	journalLen    int           // the fresh session's journal length in /stats
	problems      []string
}

func (l *loop) failf(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// iteration runs one client loop: a fresh token crawls over /batch, the
// same token crawls again (every request a journal replay), and a second
// fresh token streams POST /crawl, hangs up halfway and resumes on its
// cursor. Every output is verified. afterFresh, when not nil, is called
// when the /batch crawl has finished.
func (s *serveStack) iteration(cfg config, ver *verifier, name string, traced bool, afterFresh func()) loop {
	var l loop
	ctx := context.Background()
	crawler := parallel.Crawler{Workers: serveWorkers}
	opts := &core.Options{InFlight: 1}
	tokA, tokB := name+"-batch", name+"-stream"

	cl, err := httpclient.DialToken(ctx, s.base, tokA, s.hc)
	if err != nil {
		l.failf("dial %s: %v", tokA, err)
		return l
	}
	srv := newCallTimer(cl, cfg.tr)
	var res *core.Result
	crawlRoot(cfg, traced, "fresh", func(ctx context.Context) {
		t0 := time.Now()
		res, err = crawler.Crawl(ctx, srv, opts)
		l.freshWall = time.Since(t0)
	})
	l.fresh = srv.take()
	if afterFresh != nil {
		afterFresh()
	}
	if err != nil {
		l.failf("fresh crawl: %v", err)
		return l
	}
	if err := ver.check(res.Tuples); err != nil {
		l.failf("fresh crawl: %v", err)
	}
	l.paid, l.resolved = res.Queries, res.Resolved
	before, err := s.sessionStats(tokA)
	if err != nil {
		l.failf("stats: %v", err)
		return l
	}
	if before.Queries != res.Queries {
		l.failf("/stats says %s paid %d queries, the crawler counted %d", tokA, before.Queries, res.Queries)
	}
	l.journalLen = before.JournalLen

	crawlRoot(cfg, traced, "replay", func(ctx context.Context) {
		res, err = crawler.Crawl(ctx, srv, opts)
	})
	l.replay = srv.take()
	if err != nil {
		l.failf("replayed crawl: %v", err)
		return l
	}
	if err := ver.check(res.Tuples); err != nil {
		l.failf("replayed crawl: %v", err)
	}
	after, err := s.sessionStats(tokA)
	if err != nil {
		l.failf("stats: %v", err)
		return l
	}
	if after.Queries != before.Queries {
		l.failf("the replayed crawl of %s paid %d queries", tokA, after.Queries-before.Queries)
	}
	l.replays = after.Replays - before.Replays

	got, err := s.stream(ctx, tokB, &l)
	if err != nil {
		l.failf("stream: %v", err)
		return l
	}
	if err := ver.check(got); err != nil {
		l.failf("resumed stream: %v", err)
	}
	if st, err := s.sessionStats(tokB); err != nil {
		l.failf("stats: %v", err)
	} else if st.Queries != l.paid {
		l.failf("the resumed stream of %s paid %d queries, the /batch crawl paid %d", tokB, st.Queries, l.paid)
	}
	return l
}

// stream runs POST /crawl for token, hangs up after half of the tuples and
// resumes on the cursor. It returns every tuple received.
func (s *serveStack) stream(ctx context.Context, token string, l *loop) (dataspace.Bag, error) {
	cl, err := httpclient.DialToken(ctx, s.base, token, s.hc)
	if err != nil {
		return nil, err
	}
	hangup := s.ds.N() / 2
	var got dataspace.Bag
	t0 := time.Now()
	for t, err := range cl.CrawlSeq(ctx, streamAlgorithm, 0) {
		if err != nil {
			return nil, err
		}
		if len(got) == 0 {
			l.streamFirst = time.Since(t0)
		}
		got = append(got, t)
		if len(got) == hangup {
			break
		}
	}
	if len(got) != hangup {
		return nil, fmt.Errorf("stream ended after %d tuples, before the hang-up at %d", len(got), hangup)
	}
	t0 = time.Now()
	first := true
	for t, err := range cl.CrawlSeq(ctx, streamAlgorithm, hangup) {
		if err != nil {
			return nil, err
		}
		if first {
			l.resumeFirst, first = time.Since(t0), false
		}
		got = append(got, t)
	}
	return got, nil
}

// round runs one iteration on every client concurrently.
func (s *serveStack) round(cfg config, ver *verifier, n int, traced bool) []loop {
	out := make([]loop, serveClients)
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = s.iteration(cfg, ver, fmt.Sprintf("c%d-%d", c, n), traced, nil)
		}()
	}
	wg.Wait()
	return out
}

func runServe(cfg config, r *report) {
	var reps []setupTimes
	var st *serveStack
	for range setupReps {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		s, t, err := setupServe(cfg)
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		st, reps = s, append(reps, t)
	}
	defer st.close()
	r.setSetup(reps)
	ver := newVerifier(st.ds.Tuples)
	rounds := 0
	firstPaid := 0
	checkLoops := func(ls []loop) {
		for _, l := range ls {
			for _, p := range l.problems {
				r.fail("%s", p)
			}
			if len(l.problems) > 0 {
				continue
			}
			r.check(true, "")
			if firstPaid == 0 {
				firstPaid = l.paid
				if cfg.defaultSeed() {
					r.check(l.paid == serveWant, "the /batch crawl paid %d queries, the reference is %d", l.paid, serveWant)
				}
			}
			r.check(l.paid == firstPaid, "a /batch crawl paid %d queries, an earlier one paid %d", l.paid, firstPaid)
			r.check(l.replays == l.paid, "the replayed crawl added %d journal replays for %d journaled queries", l.replays, l.paid)
		}
	}
	// Warm up until the bounded session table is full of journals.
	for !st.handler.Sessions().Full() || rounds < 1 {
		checkLoops(st.round(cfg, ver, rounds, false))
		rounds++
		if rounds > 4*serveMaxSessions {
			r.fail("the session table did not fill up")
			return
		}
	}
	logf("warm-up: %d rounds", rounds)

	// One /batch crawl with no other traffic gives the exact per-crawl
	// planner counters.
	plan0 := st.engine.PlanStats()
	var plan index.PlanStats
	probe := st.iteration(cfg, ver, "probe", false, func() { plan = planDelta(plan0, st.engine.PlanStats()) })
	checkLoops([]loop{probe})

	var crawlMs, tps, ops, freshUs, freshMs, replayMs, streamMs, resumeMs []float64
	var tracedOps []float64
	var calls []callStats
	var walls float64
	var g goDelta
	var loops []loop
	dials0 := st.tp.dials.Load()
	measured := 0
	measureLoop(cfg, func(tr bool) {
		req0 := st.handler.Requests()
		g0 := snapGo()
		ls := st.round(cfg, ver, rounds, tr)
		g1 := snapGo()
		rounds++
		measured++
		checkLoops(ls)
		opsPerS := float64(st.handler.Requests()-req0) / g1.at.Sub(g0.at).Seconds()
		if tr {
			tracedOps = append(tracedOps, opsPerS)
			return
		}
		g.add(g0, g1)
		ops = append(ops, opsPerS)
		for _, l := range ls {
			if len(l.problems) > 0 {
				continue
			}
			loops = append(loops, l)
			crawlMs = append(crawlMs, l.freshWall.Seconds()*1e3)
			tps = append(tps, float64(st.ds.N())/l.freshWall.Seconds())
			freshUs = append(freshUs, l.fresh.us...)
			replayMs = append(replayMs, msOf(l.replay.us)...)
			streamMs = append(streamMs, l.streamFirst.Seconds()*1e3)
			resumeMs = append(resumeMs, l.resumeFirst.Seconds()*1e3)
			calls = append(calls, l.fresh)
			walls += l.freshWall.Seconds()
		}
	})
	dials := st.tp.dials.Load() - dials0
	logf("measured %d rounds", measured)
	freshMs = msOf(freshUs)
	r.set("crawl_ms_p50", median(crawlMs), len(crawlMs))
	r.set("tuples_per_s", median(tps), len(tps))
	r.set("queries_per_crawl", float64(firstPaid), 0)
	r.setPct("rt_us_p50", freshUs, 50)
	r.setPct("rt_us_p99", freshUs, 99)
	r.set("ops_per_s", median(ops), len(ops))
	r.set("peak_rss_mb", peakRSSMB(), 0)

	r.zeroLayers("diskstore.")
	r.setPlan(plan, 1)
	r.set("core.resolved_frac", ratio(float64(probe.resolved), float64(probe.paid)), 0)
	r.set("core.tuples_per_query", ratio(float64(st.ds.N()), float64(probe.paid)), 0)
	r.pctOr0("session.fresh_ms_p50", freshMs, 50)
	r.pctOr0("session.fresh_ms_p99", freshMs, 99)
	r.pctOr0("session.replay_ms_p50", replayMs, 50)
	r.pctOr0("session.replay_ms_p99", replayMs, 99)
	r.pctOr0("session.stream_first_ms_p50", streamMs, 50)
	r.pctOr0("session.resume_first_ms_p50", resumeMs, 50)
	r.set("session.replays_per_crawl", float64(probe.replays), 0)
	r.set("session.journal_len", float64(probe.journalLen), 0)
	r.set("httpclient.dials_per_loop", ratio(float64(dials), float64(measured*serveClients)), measured*serveClients)
	r.set("httpserver.shed_503", float64(st.tp.shed.Load()), 0)
	// Paid queries per loop: the /batch crawl and the resumed stream.
	r.setGo(g, float64(2*firstPaid*len(loops)), float64(len(loops)))
	idle := 0.0
	if cfg.tr != nil {
		spans := cfg.tr.all()
		ts := summarize(spans, "fresh")
		r.setTrace(ts, len(spans))
		idle = ratio(float64(ts.split[kCrawl]), float64(ts.wall))
		r.pctOr0("httpserver.replay_us_p50", summarize(spans, "replay").handlerDur, 50)
		r.set("trace.overhead_frac", median(ops)/median(tracedOps)-1, len(tracedOps))
	} else {
		r.set("httpserver.replay_us_p50", 0, 0)
	}
	r.setParallel(calls, walls, idle)
}

func msOf(us []float64) []float64 {
	out := make([]float64, len(us))
	for i, v := range us {
		out[i] = v / 1e3
	}
	return out
}
