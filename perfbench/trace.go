package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hidb/internal/dataspace"
)

// kind names a layer boundary a span is recorded at. The order is the
// nesting order: a span's children are of a later kind.
type kind uint8

const (
	kCrawl   kind = iota // one complete crawl, the root of its spans
	kCall                // the crawler's call into its hiddendb.Server
	kRT                  // one httpclient round trip (http.RoundTripper)
	kHandler             // one httpserver handler invocation
	kLocal               // one hiddendb.Local call
	kEngine              // one index.Engine call
	numKinds
)

var kindNames = [numKinds]string{"crawl", "call", "roundtrip", "handler", "local", "engine"}

// span is one timed interval at a layer boundary. start and end are
// nanoseconds since the tracer's epoch; req is the ID of the crawl root the
// span belongs to (0 when it could not be attributed to one).
type span struct {
	kind       kind
	tag        string // endpoint path of roundtrip/handler spans
	id, parent int64
	req        int64
	start, end int64
	n, aux     int64 // queries carried; rows returned (engine) or response bytes (roundtrip)
	reqBytes   int64 // request body bytes (roundtrip)
}

func (s span) dur() int64 { return s.end - s.start }

// ref is what a context carries across a boundary: the enclosing span.
type ref struct{ id, req int64 }

type refKey struct{}

func refOf(ctx context.Context) ref {
	r, _ := ctx.Value(refKey{}).(ref)
	return r
}

// tracer records spans in memory. A nil *tracer, or one switched off,
// records nothing, so the wrappers cost one check when tracing is off.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// byQuery maps a query's predicate array to the span that is answering
	// it: Engine.Select takes no context, so an engine span finds its
	// enclosing hiddendb.Local span through the query it was handed.
	byQuery sync.Map
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open is an unfinished span.
type open struct {
	t *tracer
	s span
}

// begin opens a span of kind k under parent. A crawl root starts a new
// request ID; every other span inherits its parent's.
func (t *tracer) begin(k kind, parent ref) (*open, ref) {
	id := t.nextID.Add(1)
	req := parent.req
	if k == kCrawl {
		req = id
	}
	o := &open{t: t, s: span{kind: k, id: id, parent: parent.id, req: req, start: t.now()}}
	return o, ref{id: id, req: req}
}

// beginCtx is begin with the parent taken from ctx; it returns ctx
// carrying the new span.
func (t *tracer) beginCtx(ctx context.Context, k kind) (*open, context.Context) {
	o, r := t.begin(k, refOf(ctx))
	return o, context.WithValue(ctx, refKey{}, r)
}

func (o *open) end() {
	o.s.end = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func queryKey(q dataspace.Query) *dataspace.Pred {
	if p := q.Preds(); len(p) > 0 {
		return &p[0]
	}
	return nil
}

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeSpans writes spans as CSV: kind, tag, id, parent, req, start_ns,
// end_ns, n, aux.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "kind,tag,id,parent,req,start_ns,end_ns,n,aux")
	var b []byte
	for _, s := range spans {
		b = b[:0]
		b = append(b, kindNames[s.kind]...)
		b = append(b, ',')
		b = append(b, s.tag...)
		for _, v := range []int64{s.id, s.parent, s.req, s.start, s.end, s.n, s.aux} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '\n')
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [lo, hi) time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals, each clipped
// to clip: overlapping intervals are counted once.
func unionLen(ivs []interval, clip interval) int64 {
	cl := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, clip.lo), min(iv.hi, clip.hi)
		if hi > lo {
			cl = append(cl, interval{lo, hi})
		}
	}
	slices.SortFunc(cl, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total, curLo, curHi int64
	first := true
	for _, iv := range cl {
		switch {
		case first:
			curLo, curHi, first = iv.lo, iv.hi, false
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if !first {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children that overlap each other (the parallel crawler keeps two round
// trips in flight) are subtracted once, not once each.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.start, c.end}
	}
	return parent.dur() - unionLen(ivs, interval{parent.start, parent.end})
}

// layerSplit partitions a crawl's wall time between the layers: each
// instant goes to the deepest kind with a span in flight at that instant,
// and instants with nothing in flight go to the crawler itself (kCrawl).
// The shares therefore add up to the root's duration exactly, also when
// spans of one kind overlap.
func layerSplit(root span, spans []span) [numKinds]int64 {
	clip := interval{root.start, root.end}
	var covered [numKinds + 1]int64 // covered[k]: union of spans of kind >= k
	covered[kCrawl] = root.dur()
	for k := kCall; k < numKinds; k++ {
		var ivs []interval
		for _, s := range spans {
			if s.kind >= k {
				ivs = append(ivs, interval{s.start, s.end})
			}
		}
		covered[k] = unionLen(ivs, clip)
	}
	var out [numKinds]int64
	for k := kCrawl; k < numKinds; k++ {
		out[k] = covered[k] - covered[k+1]
	}
	return out
}

// traceSummary aggregates the spans of the crawls with one root tag into
// per-layer figures.
type traceSummary struct {
	crawls   int
	wall     int64           // summed crawl wall time
	split    [numKinds]int64 // summed layerSplit
	busy     [numKinds]int64 // summed span durations per kind
	count    [numKinds]int64 // spans per kind
	queries  [numKinds]int64 // summed n per kind
	aux      [numKinds]int64 // summed aux per kind
	reqBytes int64           // summed request bytes of round trips

	localSelf   []float64 // µs, per hiddendb.Local span minus its engine calls
	engineDur   []float64 // µs, per index.Engine call
	rtDur       []float64 // µs, per /batch round trip
	clientSelf  []float64 // µs, per remote call minus its round trips
	netDur      []float64 // µs, per /batch round trip minus its handler
	handlerDur  []float64 // µs, per /batch handler
	handlerSelf []float64 // µs, per /batch handler minus its Local calls
}

// summarize aggregates the spans that belong to crawl roots tagged tag:
// the roots' wall time and its layerSplit, and the per-span durations and
// self times of every layer below them.
func summarize(spans []span, tag string) *traceSummary {
	ts := &traceSummary{}
	roots := map[int64]span{}
	for _, s := range spans {
		if s.kind == kCrawl && s.tag == tag {
			roots[s.id] = s
		}
	}
	children := map[int64][]span{}
	members := map[int64][]span{}
	for _, s := range spans {
		if _, ok := roots[s.req]; !ok || s.kind == kCrawl {
			continue
		}
		members[s.req] = append(members[s.req], s)
		children[s.parent] = append(children[s.parent], s)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for id, r := range roots {
		ts.crawls++
		ts.wall += r.dur()
		split := layerSplit(r, members[id])
		for k, v := range split {
			ts.split[k] += v
		}
		for _, s := range members[id] {
			ts.busy[s.kind] += s.dur()
			ts.count[s.kind]++
			ts.queries[s.kind] += s.n
			ts.aux[s.kind] += s.aux
			kids := children[s.id]
			switch s.kind {
			case kCall:
				if len(kids) > 0 && kids[0].kind == kRT { // remote calls only
					ts.clientSelf = append(ts.clientSelf, us(selfTime(s, kids)))
				}
			case kRT:
				ts.reqBytes += s.reqBytes
				if s.tag == "/batch" {
					ts.rtDur = append(ts.rtDur, us(s.dur()))
					ts.netDur = append(ts.netDur, us(selfTime(s, kids)))
				}
			case kHandler:
				if s.tag == "/batch" {
					ts.handlerDur = append(ts.handlerDur, us(s.dur()))
					ts.handlerSelf = append(ts.handlerSelf, us(selfTime(s, kids)))
				}
			case kLocal:
				ts.localSelf = append(ts.localSelf, us(selfTime(s, kids)))
			case kEngine:
				ts.engineDur = append(ts.engineDur, us(s.dur()))
			}
		}
	}
	return ts
}

// splitTotal is the sum of the layer shares, which must equal wall.
func (ts *traceSummary) splitTotal() int64 {
	var t int64
	for _, v := range ts.split {
		t += v
	}
	return t
}
