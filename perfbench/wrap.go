package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/index"
)

// callTimer sits between a crawler and its hiddendb.Server. It times every
// call — the round trip as the crawler sees it — whether or not tracing is
// on, and opens a call span when it is.
type callTimer struct {
	inner hiddendb.Server
	tr    *tracer

	mu      sync.Mutex
	us      []float64 // per call, microseconds
	queries int64
	busy    time.Duration // summed call durations
}

func newCallTimer(inner hiddendb.Server, tr *tracer) *callTimer {
	return &callTimer{inner: inner, tr: tr}
}

func (c *callTimer) record(d time.Duration, queries int) {
	c.mu.Lock()
	c.us = append(c.us, float64(d)/1e3)
	c.queries += int64(queries)
	c.busy += d
	c.mu.Unlock()
}

// Answer implements hiddendb.Server.
func (c *callTimer) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	var o *open
	if c.tr.enabled() {
		o, ctx = c.tr.beginCtx(ctx, kCall)
		o.s.n = 1
	}
	t0 := time.Now()
	res, err := c.inner.Answer(ctx, q)
	c.record(time.Since(t0), 1)
	if o != nil {
		o.end()
	}
	return res, err
}

// AnswerBatch implements hiddendb.Server.
func (c *callTimer) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	var o *open
	if c.tr.enabled() {
		o, ctx = c.tr.beginCtx(ctx, kCall)
		o.s.n = int64(len(qs))
	}
	t0 := time.Now()
	res, err := c.inner.AnswerBatch(ctx, qs)
	c.record(time.Since(t0), len(qs))
	if o != nil {
		o.end()
	}
	return res, err
}

// K implements hiddendb.Server.
func (c *callTimer) K() int { return c.inner.K() }

// Schema implements hiddendb.Server.
func (c *callTimer) Schema() *dataspace.Schema { return c.inner.Schema() }

// callStats is what a callTimer saw over one crawl.
type callStats struct {
	us      []float64
	queries int64
	busy    time.Duration
}

// take returns the calls recorded since the last take and resets them.
func (c *callTimer) take() callStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := callStats{us: c.us, queries: c.queries, busy: c.busy}
	c.us, c.queries, c.busy = nil, 0, 0
	return out
}

// newLocal serves engine through hiddendb.NewLocalEngine with return
// limit k. In a traced run the engine and the Local are wrapped in tracing.
func newLocal(tr *tracer, engine index.Engine, k int) (hiddendb.Server, error) {
	if tr == nil {
		return hiddendb.NewLocalEngine(engine, k)
	}
	local, err := hiddendb.NewLocalEngine(tracedEngine{engine, tr}, k)
	if err != nil {
		return nil, err
	}
	return tracedLocal{local, tr}, nil
}

// tracedLocal wraps a *hiddendb.Local and records a local span per call.
type tracedLocal struct {
	inner hiddendb.Server
	tr    *tracer
}

// Answer implements hiddendb.Server. The engine's Select takes no context,
// so the span is also registered under the query for the engine wrapper.
func (l tracedLocal) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	if !l.tr.enabled() {
		return l.inner.Answer(ctx, q)
	}
	o, r := l.tr.begin(kLocal, refOf(ctx))
	o.s.n = 1
	key := queryKey(q)
	l.tr.byQuery.Store(key, r)
	res, err := l.inner.Answer(context.WithValue(ctx, refKey{}, r), q)
	l.tr.byQuery.Delete(key)
	o.end()
	return res, err
}

// AnswerBatch implements hiddendb.Server.
func (l tracedLocal) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	if !l.tr.enabled() {
		return l.inner.AnswerBatch(ctx, qs)
	}
	o, ctx := l.tr.beginCtx(ctx, kLocal)
	o.s.n = int64(len(qs))
	res, err := l.inner.AnswerBatch(ctx, qs)
	o.end()
	return res, err
}

// K implements hiddendb.Server.
func (l tracedLocal) K() int { return l.inner.K() }

// Schema implements hiddendb.Server.
func (l tracedLocal) Schema() *dataspace.Schema { return l.inner.Schema() }

// tracedEngine wraps an index.Engine and records an engine span per Select
// or SelectBatch call.
type tracedEngine struct {
	index.Engine
	tr *tracer
}

// Select implements index.Engine.
func (e tracedEngine) Select(q dataspace.Query, limit int) []dataspace.Tuple {
	if !e.tr.enabled() {
		return e.Engine.Select(q, limit)
	}
	var parent ref
	if v, ok := e.tr.byQuery.Load(queryKey(q)); ok {
		parent = v.(ref)
	}
	o, _ := e.tr.begin(kEngine, parent)
	out := e.Engine.Select(q, limit)
	o.s.n, o.s.aux = 1, int64(len(out))
	o.end()
	return out
}

// SelectBatch implements index.Engine.
func (e tracedEngine) SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple {
	if !e.tr.enabled() {
		return e.Engine.SelectBatch(ctx, qs, limit)
	}
	o, ctx := e.tr.beginCtx(ctx, kEngine)
	out := e.Engine.SelectBatch(ctx, qs, limit)
	o.s.n = int64(len(out))
	for _, r := range out {
		o.s.aux += int64(len(r))
	}
	o.end()
	return out
}

// spanHeader carries the client's round-trip span to the server's handler.
const spanHeader = "X-Perfbench-Span"

// tracedHandler wraps the httpserver handler and records a handler span per
// request, parented to the client round trip named in spanHeader.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var parent ref
	if !h.tr.enabled() {
		h.inner.ServeHTTP(w, r)
		return
	}
	if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &parent.id, &parent.req); err != nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	o, rf := h.tr.begin(kHandler, parent)
	o.s.tag = r.URL.Path
	h.inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), refKey{}, rf)))
	o.end()
}

// transport is the clients' http.RoundTripper: one pooled http.Transport
// sized to the client count, with a dial counter. It drains every
// non-streaming response body on Close, so a decoder that stops before EOF
// does not cost a connection. When tracing it records a round-trip span and
// buffers the response body before returning, which separates transport
// time from the client's decoding.
type transport struct {
	base  *http.Transport
	tr    *tracer
	dials atomic.Int64
	shed  atomic.Int64 // 503 responses
}

func newTransport(clients int, tr *tracer) *transport {
	t := &transport{tr: tr}
	var d net.Dialer
	t.base = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			t.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
	return t
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	stream := req.URL.Path == "/crawl"
	var o *open
	if t.tr.enabled() {
		var r ref
		o, r = t.tr.begin(kRT, refOf(req.Context()))
		o.s.tag = req.URL.Path
		o.s.reqBytes = max(req.ContentLength, 0)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", r.id, r.req))
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		t.shed.Add(1)
	}
	if err != nil || stream {
		if o != nil {
			o.end()
		}
		return resp, err
	}
	if o != nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.s.aux = int64(len(body))
		o.end()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	}
	resp.Body = drainingBody{resp.Body}
	return resp, nil
}

func (t *transport) close() { t.base.CloseIdleConnections() }

// drainingBody reads a response body to EOF before closing it, so the
// connection goes back to the pool.
type drainingBody struct{ io.ReadCloser }

func (b drainingBody) Close() error {
	io.Copy(io.Discard, io.LimitReader(b.ReadCloser, 1<<20))
	return b.ReadCloser.Close()
}
