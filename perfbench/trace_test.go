package main

import "testing"

func sp(k kind, id, parent, start, end int64) span {
	return span{kind: k, id: id, parent: parent, req: 1, start: start, end: end}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	root := sp(kCrawl, 1, 0, 0, 100)
	// Two round trips in flight at once, as in the parallel crawler, and a
	// third after a gap.
	kids := []span{
		sp(kCall, 2, 1, 10, 50),
		sp(kCall, 3, 1, 30, 70),
		sp(kCall, 4, 1, 80, 90),
	}
	if got := selfTime(root, kids); got != 100-60-10 {
		t.Errorf("self time = %d, want 30", got)
	}
	// A child that is entirely inside another adds nothing.
	kids = append(kids, sp(kCall, 5, 1, 35, 45))
	if got := selfTime(root, kids); got != 30 {
		t.Errorf("self time with a nested child = %d, want 30", got)
	}
	// A child reaching past the parent counts only inside it.
	if got := selfTime(sp(kCall, 6, 1, 0, 20), []span{sp(kLocal, 7, 6, 10, 40)}); got != 10 {
		t.Errorf("self time with a clipped child = %d, want 10", got)
	}
}

func TestLayerSplitAddsUpToWallTime(t *testing.T) {
	root := sp(kCrawl, 1, 0, 0, 1000)
	spans := []span{
		sp(kCall, 2, 1, 100, 600),
		sp(kCall, 3, 1, 300, 900), // overlaps call 2
		sp(kLocal, 4, 2, 150, 550),
		sp(kLocal, 5, 3, 350, 850),
		sp(kEngine, 6, 4, 200, 500),
		sp(kEngine, 7, 5, 400, 800),
	}
	split := layerSplit(root, spans)
	want := [numKinds]int64{kCrawl: 200, kCall: 100, kLocal: 100, kEngine: 600}
	if split != want {
		t.Errorf("split = %v, want %v", split, want)
	}
	var sum int64
	for _, v := range split {
		sum += v
	}
	if sum != root.dur() {
		t.Errorf("shares add up to %d, the crawl took %d", sum, root.dur())
	}
}

func TestSummarizeKeepsOnlyTheTaggedCrawls(t *testing.T) {
	fresh := span{kind: kCrawl, tag: "fresh", id: 1, req: 1, start: 0, end: 100}
	replay := span{kind: kCrawl, tag: "replay", id: 2, req: 2, start: 100, end: 200}
	spans := []span{
		fresh, replay,
		{kind: kCall, id: 3, parent: 1, req: 1, start: 10, end: 90, n: 4},
		{kind: kRT, tag: "/batch", id: 4, parent: 3, req: 1, start: 20, end: 80, aux: 400, reqBytes: 40},
		{kind: kHandler, tag: "/batch", id: 5, parent: 4, req: 1, start: 30, end: 70},
		{kind: kLocal, id: 6, parent: 5, req: 1, start: 40, end: 60, n: 4},
		{kind: kEngine, id: 7, parent: 6, req: 1, start: 45, end: 55, n: 4, aux: 8},
		{kind: kCall, id: 8, parent: 2, req: 2, start: 110, end: 190},
	}
	ts := summarize(spans, "fresh")
	if ts.crawls != 1 || ts.wall != 100 || ts.splitTotal() != 100 {
		t.Fatalf("summary of the fresh crawl: %d crawls, wall %d, split %d", ts.crawls, ts.wall, ts.splitTotal())
	}
	want := [numKinds]int64{kCrawl: 20, kCall: 20, kRT: 20, kHandler: 20, kLocal: 10, kEngine: 10}
	if ts.split != want {
		t.Errorf("split = %v, want %v", ts.split, want)
	}
	if len(ts.clientSelf) != 1 || ts.clientSelf[0] != 0.02 || ts.netDur[0] != 0.02 || ts.handlerSelf[0] != 0.02 || ts.localSelf[0] != 0.01 {
		t.Errorf("self times: client %v net %v handler %v local %v", ts.clientSelf, ts.netDur, ts.handlerSelf, ts.localSelf)
	}
	if ts.reqBytes != 40 || ts.aux[kRT] != 400 || ts.queries[kCall] != 4 {
		t.Errorf("bytes %d/%d for %d queries", ts.reqBytes, ts.aux[kRT], ts.queries[kCall])
	}
}
