package hiddendb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// batchQueries builds a query stream with repeats, the shape a crawl's
// ready queue produces.
func batchQueries(sch *dataspace.Schema, n int, seed uint64) []dataspace.Query {
	rng := simrand.New(seed)
	qs := make([]dataspace.Query, n)
	for i := range qs {
		q := dataspace.UniverseQuery(sch)
		if rng.Bool(0.6) {
			q = q.WithValue(0, rng.IntRange(1, 4))
		}
		if rng.Bool(0.6) {
			lo := rng.IntRange(0, 80)
			q = q.WithRange(1, lo, lo+rng.IntRange(0, 20))
		}
		qs[i] = q
	}
	return qs
}

func sameResult(a, b Result) bool {
	if a.Overflow != b.Overflow || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// TestAnswerBatchMatchesSequential is the tentpole invariant: for every
// server in the stack — plain Local, sharded Local, and the full decorator
// tower — a batch is answered exactly as the same queries issued one at a
// time.
func TestAnswerBatchMatchesSequential(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(2000, 21)
	qs := batchQueries(sch, 64, 22)

	build := map[string]func() Server{
		"local": func() Server {
			srv, err := NewLocal(sch, bag, 25, 5)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		"sharded": func() Server {
			srv, err := NewLocalSharded(sch, bag, 25, 5, 4)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		"decorated": func() Server {
			srv, err := NewLocalSharded(sch, bag, 25, 5, 3)
			if err != nil {
				t.Fatal(err)
			}
			return NewQuota(NewCaching(NewCounting(srv)), 1<<20)
		},
	}
	for name, mk := range build {
		seq := mk()
		want := make([]Result, len(qs))
		for i, q := range qs {
			res, err := seq.Answer(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: sequential query %d: %v", name, i, err)
			}
			want[i] = res
		}
		got, err := mk().AnswerBatch(context.Background(), qs)
		if err != nil {
			t.Fatalf("%s: AnswerBatch: %v", name, err)
		}
		if len(got) != len(qs) {
			t.Fatalf("%s: batch answered %d of %d", name, len(got), len(qs))
		}
		for i := range got {
			if !sameResult(got[i], want[i]) {
				t.Fatalf("%s: batch result %d differs from sequential Answer", name, i)
			}
		}
	}
}

// TestShardedLocalIdenticalToLocal pins that sharding is invisible in the
// responses: same (bag, k, seed) means bit-identical answers.
func TestShardedLocalIdenticalToLocal(t *testing.T) {
	sch := testSchema(t)
	bag := testBag(1500, 23)
	plain, err := NewLocal(sch, bag, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewLocalSharded(sch, bag, 30, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards() != 1 || sharded.Shards() != 7 {
		t.Fatalf("Shards() = %d/%d, want 1/7", plain.Shards(), sharded.Shards())
	}
	for i, q := range batchQueries(sch, 100, 24) {
		a, _ := plain.Answer(context.Background(), q)
		b, _ := sharded.Answer(context.Background(), q)
		if !sameResult(a, b) {
			t.Fatalf("query %d: sharded response differs from plain (query %s)", i, q)
		}
	}
	if !plain.Dump().EqualMultiset(sharded.Dump()) {
		t.Fatal("sharded Dump differs")
	}
}

// TestLocalBatchInvalidQuery: an invalid query fails the batch at its
// position, answering the prefix before it — the sequential semantics.
func TestLocalBatchInvalidQuery(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(200, 25), 10, 3)
	// A second schema instance defeats the fast pointer check so the bad
	// value is actually validated, as a foreign client's query would be.
	foreign := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 4},
		{Name: "N", Kind: dataspace.Numeric, Min: 0, Max: 100},
	})
	good := dataspace.UniverseQuery(foreign)
	bad := good.WithValue(0, 99) // outside the domain [1,4]
	res, err := srv.AnswerBatch(context.Background(), []dataspace.Query{good, good, bad, good})
	if err == nil {
		t.Fatal("invalid query in batch not reported")
	}
	if len(res) != 2 {
		t.Fatalf("batch answered %d queries before the invalid one, want 2", len(res))
	}
}

// TestQuotaBatchMidExhaustion is the quota-mid-batch contract: the admitted
// prefix is answered, the error is ErrQuotaExceeded, and the budget ends up
// exactly spent.
func TestQuotaBatchMidExhaustion(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(300, 27), 10, 4)
	counting := NewCounting(srv)
	quota := NewQuota(counting, 5)
	qs := batchQueries(sch, 8, 28)

	res, err := quota.AnswerBatch(context.Background(), qs)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if len(res) != 5 {
		t.Fatalf("answered %d queries, want the 5-query budget", len(res))
	}
	if quota.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", quota.Remaining())
	}
	if counting.Queries() != 5 {
		t.Fatalf("inner server saw %d queries, want 5", counting.Queries())
	}
	// A spent budget rejects the next batch outright.
	if _, err := quota.AnswerBatch(context.Background(), qs[:2]); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("spent quota answered another batch: %v", err)
	}
	// And an empty batch is free.
	if res, err := quota.AnswerBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %d", err, len(res))
	}
}

// TestCountingBatch: a B-query batch counts as B queries — the cost metric
// is batching-invariant.
func TestCountingBatch(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 29), 20, 6)
	c := NewCounting(srv)
	qs := batchQueries(sch, 17, 30)
	if _, err := c.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if c.Queries() != 17 {
		t.Fatalf("Queries = %d, want 17", c.Queries())
	}
	if c.Resolved()+c.Overflowed() != 17 {
		t.Fatal("resolved+overflowed != queries")
	}
}

// TestCachingBatchDedupes: within one batch, repeats of a query are hits
// and only distinct queries reach the inner server — exactly the sequential
// accounting.
func TestCachingBatchDedupes(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(500, 31), 20, 7)
	counting := NewCounting(srv)
	caching := NewCaching(counting)

	u := dataspace.UniverseQuery(sch)
	a := u.WithValue(0, 1)
	b := u.WithValue(0, 2)
	qs := []dataspace.Query{a, b, a, a, b, u}

	res, err := caching.AnswerBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(qs) {
		t.Fatalf("answered %d of %d", len(res), len(qs))
	}
	if counting.Queries() != 3 {
		t.Fatalf("inner saw %d queries, want 3 distinct", counting.Queries())
	}
	if caching.Misses() != 3 || caching.Hits() != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3", caching.Hits(), caching.Misses())
	}
	if !sameResult(res[0], res[2]) || !sameResult(res[0], res[3]) || !sameResult(res[1], res[4]) {
		t.Fatal("repeated queries answered differently within one batch")
	}
	// A second batch of the same queries is all hits.
	if _, err := caching.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if counting.Queries() != 3 {
		t.Fatalf("second batch reached the server: %d queries", counting.Queries())
	}
}

// TestCachingBatchErrorAccounting: a batch cut short by an inner error
// accounts exactly like sequential issuing — a cached query positioned
// after the failure is never "answered" and must not count as a hit.
func TestCachingBatchErrorAccounting(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(300, 39), 10, 5)
	quota := NewQuota(srv, 1)
	caching := NewCaching(quota)

	u := dataspace.UniverseQuery(sch)
	cached := u.WithValue(0, 1)
	fresh := u.WithValue(0, 2)
	if _, err := caching.Answer(context.Background(), cached); err != nil { // spends the whole budget
		t.Fatal(err)
	}
	if caching.Hits() != 0 || caching.Misses() != 1 {
		t.Fatalf("setup hits/misses = %d/%d", caching.Hits(), caching.Misses())
	}
	res, err := caching.AnswerBatch(context.Background(), []dataspace.Query{fresh, cached})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if len(res) != 0 {
		t.Fatalf("answered %d queries on a spent budget, want 0", len(res))
	}
	// Sequentially, Answer(fresh) fails first and cached is never reached:
	// the counters must not move.
	if caching.Hits() != 0 || caching.Misses() != 1 {
		t.Fatalf("failed batch moved counters: hits/misses = %d/%d, want 0/1", caching.Hits(), caching.Misses())
	}
}

// TestLatencyBatchIsOneRoundTrip: B batched queries pay the delay once.
func TestLatencyBatchIsOneRoundTrip(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(200, 33), 20, 8)
	delay := 40 * time.Millisecond
	lat := NewLatency(srv, delay)
	qs := batchQueries(sch, 10, 34)
	start := time.Now()
	if _, err := lat.AnswerBatch(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*delay {
		t.Fatalf("10-query batch took %v — paying per-query latency, not per-round-trip", elapsed)
	}
}

// singleOnly implements only the legacy single-query contract.
type singleOnly struct {
	inner Server
	fail  int // answer this many queries, then error
}

func (s *singleOnly) Answer(q dataspace.Query) (Result, error) {
	if s.fail == 0 {
		return Result{}, fmt.Errorf("singleOnly: out of answers")
	}
	s.fail--
	return s.inner.Answer(context.Background(), q)
}
func (s *singleOnly) K() int                    { return s.inner.K() }
func (s *singleOnly) Schema() *dataspace.Schema { return s.inner.Schema() }

// TestBatchedAdapter: Batched upgrades a legacy Single by looping,
// preserving prefix-on-error and honouring ctx between queries.
func TestBatchedAdapter(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocal(sch, testBag(300, 35), 15, 9)
	up := Batched(&singleOnly{inner: srv, fail: 3})
	qs := batchQueries(sch, 6, 36)
	res, err := up.AnswerBatch(context.Background(), qs)
	if err == nil {
		t.Fatal("adapter swallowed the inner error")
	}
	if len(res) != 3 {
		t.Fatalf("adapter answered %d queries before the failure, want 3", len(res))
	}
	for i, r := range res {
		want, _ := srv.Answer(context.Background(), qs[i])
		if !sameResult(r, want) {
			t.Fatalf("adapter result %d differs from direct Answer", i)
		}
	}
	if up.K() != srv.K() || up.Schema() != srv.Schema() {
		t.Fatal("adapter does not forward K/Schema")
	}
}

// TestCountingCachingConcurrent hammers the measurement wrappers from many
// goroutines mixing Answer and AnswerBatch; under -race this is the
// concurrency-safety proof, and the totals must still reconcile.
func TestCountingCachingConcurrent(t *testing.T) {
	sch := testSchema(t)
	srv, _ := NewLocalSharded(sch, testBag(1000, 37), 20, 11, 4)
	counting := NewCounting(srv)
	caching := NewCaching(counting)

	const goroutines = 8
	var wg sync.WaitGroup
	var issued sync.Map // key -> true, the distinct queries sent
	total := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := batchQueries(sch, 120, 40+uint64(g)%4) // overlapping streams
			for _, q := range qs {
				issued.Store(string(q.AppendKey(nil)), true)
			}
			for i := 0; i < len(qs); i += 6 {
				if i%2 == 0 {
					if _, err := caching.AnswerBatch(context.Background(), qs[i:i+6]); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				} else {
					for _, q := range qs[i : i+6] {
						if _, err := caching.Answer(context.Background(), q); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
					}
				}
				total[g] += 6
			}
		}(g)
	}
	wg.Wait()

	sum := 0
	for _, n := range total {
		sum += n
	}
	if got := caching.Hits() + caching.Misses(); got != sum {
		t.Fatalf("hits+misses = %d, want %d issued", got, sum)
	}
	distinct := 0
	issued.Range(func(_, _ any) bool { distinct++; return true })
	// Without singleflight a distinct query may reach the server more than
	// once under concurrency, but never fewer times than once, and the
	// counter must agree with the cache's miss count.
	if counting.Queries() != caching.Misses() {
		t.Fatalf("inner queries %d != misses %d", counting.Queries(), caching.Misses())
	}
	if counting.Queries() < distinct {
		t.Fatalf("inner saw %d queries for %d distinct", counting.Queries(), distinct)
	}
}
