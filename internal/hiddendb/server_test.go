package hiddendb

import (
	"context"
	"errors"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

func testSchema(t *testing.T) *dataspace.Schema {
	t.Helper()
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 4},
		{Name: "N", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
}

func testBag(n int, seed uint64) dataspace.Bag {
	rng := simrand.New(seed)
	bag := make(dataspace.Bag, n)
	for i := range bag {
		bag[i] = dataspace.Tuple{rng.IntRange(1, 4), rng.IntRange(0, 100)}
	}
	return bag
}

func TestLocalResolvedIffSmall(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(500, 1)
	srv, err := NewLocal(sch, bag, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)

	res, err := srv.Answer(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 50 {
		t.Fatalf("universe: overflow=%v len=%d, want true 50", res.Overflow, len(res.Tuples))
	}

	// A query matching <= k tuples must resolve with the exact bag.
	q := u.WithValue(0, 1).WithRange(1, 0, 5)
	want := 0
	for _, tu := range bag {
		if q.Covers(tu) {
			want++
		}
	}
	if want > 50 {
		t.Skip("unlucky seed: narrow query still overflows")
	}
	res, err = srv.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow || len(res.Tuples) != want {
		t.Fatalf("narrow query: overflow=%v len=%d, want false %d", res.Overflow, len(res.Tuples), want)
	}
}

func TestLocalDeterministicResponses(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(300, 2)
	srv, err := NewLocal(sch, bag, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	u := dataspace.UniverseQuery(sch)
	a, err := srv.Answer(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := srv.Answer(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tuples) != len(b.Tuples) || a.Overflow != b.Overflow {
			t.Fatal("repeated query changed shape")
		}
		for i := range a.Tuples {
			if !a.Tuples[i].Equal(b.Tuples[i]) {
				t.Fatal("repeated query returned different tuples — violates the problem setup")
			}
		}
	}
}

func TestLocalSameSeedSameServer(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(300, 3)
	a, _ := NewLocal(sch, bag, 10, 99)
	b, _ := NewLocal(sch, bag, 10, 99)
	u := dataspace.UniverseQuery(sch)
	ra, _ := a.Answer(context.Background(), u)
	rb, _ := b.Answer(context.Background(), u)
	for i := range ra.Tuples {
		if !ra.Tuples[i].Equal(rb.Tuples[i]) {
			t.Fatal("equal seeds produced different priority orders")
		}
	}
	c, _ := NewLocal(sch, bag, 10, 100)
	rc, _ := c.Answer(context.Background(), u)
	same := true
	for i := range ra.Tuples {
		if !ra.Tuples[i].Equal(rc.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Log("warning: different seeds produced identical top-k (possible but unlikely)")
	}
}

func TestLocalRejectsBadK(t *testing.T) {
	if _, err := NewLocal(testSchema(t), nil, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestLocalDumpIsGroundTruth(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(100, 4)
	srv, _ := NewLocal(sch, bag, 10, 5)
	if srv.Size() != 100 {
		t.Fatalf("Size = %d, want 100", srv.Size())
	}
	if !srv.Dump().EqualMultiset(bag) {
		t.Fatal("Dump is not the original bag")
	}
}

func TestCounting(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 5), 20, 6)
	c := NewCounting(srv)
	u := dataspace.UniverseQuery(sch)

	if _, err := c.Answer(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	narrow := u.WithValue(0, 2).WithRange(1, 0, 2)
	if _, err := c.Answer(context.Background(), narrow); err != nil {
		t.Fatal(err)
	}
	if c.Queries() != 2 {
		t.Fatalf("Queries = %d, want 2", c.Queries())
	}
	if c.Overflowed()+c.Resolved() != 2 {
		t.Fatal("resolved+overflowed != queries")
	}
	c.Reset()
	if c.Queries() != 0 || c.Resolved() != 0 || c.Overflowed() != 0 {
		t.Fatal("Reset did not zero counters")
	}
	if c.K() != 20 || c.Schema() != sch {
		t.Fatal("Counting does not forward K/Schema")
	}
}

func TestCachingDedupes(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 7), 20, 8)
	counting := NewCounting(srv)
	caching := NewCaching(counting)
	u := dataspace.UniverseQuery(sch)

	r1, _ := caching.Answer(context.Background(), u)
	r2, _ := caching.Answer(context.Background(), u)
	r3, _ := caching.Answer(context.Background(), u)
	if counting.Queries() != 1 {
		t.Fatalf("inner saw %d queries, want 1", counting.Queries())
	}
	if caching.Hits() != 2 {
		t.Fatalf("Hits = %d, want 2", caching.Hits())
	}
	if len(r1.Tuples) != len(r2.Tuples) || len(r2.Tuples) != len(r3.Tuples) {
		t.Fatal("cache returned different responses")
	}

	// Semantically equal but separately built queries share the cache key.
	q1 := u.WithValue(0, 3)
	q2 := dataspace.UniverseQuery(sch).WithValue(0, 3)
	caching.Answer(context.Background(), q1)
	caching.Answer(context.Background(), q2)
	if counting.Queries() != 2 {
		t.Fatalf("equal queries not deduped: inner saw %d", counting.Queries())
	}
	if caching.K() != 20 || caching.Schema() != sch {
		t.Fatal("Caching does not forward K/Schema")
	}
}

func TestCachingHitMissAccounting(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 7), 20, 8)
	counting := NewCounting(srv)
	caching := NewCaching(counting)
	rng := simrand.New(13)

	// Issue a randomized stream with many repeats; the memo key is the
	// binary AppendKey encoding, so distinct queries must miss exactly once
	// and repeats must always hit.
	issued := 0
	distinct := map[string]bool{}
	for i := 0; i < 400; i++ {
		q := dataspace.UniverseQuery(sch)
		if rng.Bool(0.7) {
			q = q.WithValue(0, rng.IntRange(1, 4))
		}
		if rng.Bool(0.7) {
			lo := rng.IntRange(0, 90)
			q = q.WithRange(1, lo, lo+rng.IntRange(0, 4))
		}
		if _, err := caching.Answer(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		issued++
		distinct[string(q.AppendKey(nil))] = true
	}
	if caching.Hits()+caching.Misses() != issued {
		t.Fatalf("Hits(%d) + Misses(%d) != %d issued", caching.Hits(), caching.Misses(), issued)
	}
	if caching.Misses() != len(distinct) {
		t.Fatalf("Misses = %d, want %d (one per distinct canonical key)", caching.Misses(), len(distinct))
	}
	if counting.Queries() != caching.Misses() {
		t.Fatalf("inner server saw %d queries, want Misses() = %d", counting.Queries(), caching.Misses())
	}
}

func TestQuota(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(100, 9), 10, 10)
	q := NewQuota(srv, 3)
	u := dataspace.UniverseQuery(sch)
	for i := 0; i < 3; i++ {
		if _, err := q.Answer(context.Background(), u); err != nil {
			t.Fatalf("query %d within budget failed: %v", i, err)
		}
	}
	if q.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", q.Remaining())
	}
	if _, err := q.Answer(context.Background(), u); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-budget query: err = %v, want ErrQuotaExceeded", err)
	}
	if q.K() != 10 || q.Schema() != sch {
		t.Fatal("Quota does not forward K/Schema")
	}
}

func TestTopKPriorityConsistency(t *testing.T) {
	// The k tuples returned for a broader query must include every
	// qualifying tuple returned for a narrower one that overflows too —
	// because priorities are global. (This is the property the paper's
	// "same k tuples may always be returned" behaviour rests on.)
	sch := testSchema(t)
	bag := testBag(2000, 11)
	srv, _ := NewLocal(sch, bag, 30, 12)
	broad := dataspace.UniverseQuery(sch)
	rb, _ := srv.Answer(context.Background(), broad)
	if !rb.Overflow {
		t.Skip("universe did not overflow")
	}
	// Narrow to C=1 (still likely overflowing with 2000 tuples).
	narrow := broad.WithValue(0, 1)
	rn, _ := srv.Answer(context.Background(), narrow)
	if !rn.Overflow {
		t.Skip("narrow query did not overflow")
	}
	// Every broad-result tuple with C=1 that ranks in the top 30 of the
	// narrow result must appear there. Check subset relation on the first
	// few: the highest-priority C=1 tuple of the broad response must be
	// the narrow response's first tuple.
	var firstC1 dataspace.Tuple
	for _, tu := range rb.Tuples {
		if tu[0] == 1 {
			firstC1 = tu
			break
		}
	}
	if firstC1 != nil && !rn.Tuples[0].Equal(firstC1) {
		t.Fatal("global priority order violated between broad and narrow queries")
	}
}

func TestResultResolved(t *testing.T) {
	if (Result{Overflow: true}).Resolved() {
		t.Error("overflowing result claims resolved")
	}
	if !(Result{}).Resolved() {
		t.Error("empty result not resolved")
	}
}
