package hiddendb_test

// Caching keys its memo by the binary Query.AppendKey encoding. The test
// here pins that key's behavioural contract from the algorithms' point of
// view: lazy-slice-cover's query count — the paper's cost metric — must be
// exactly what keying by the query's predicates would produce. If the
// binary key were coarser (two different queries colliding), the crawl
// would receive a wrong cached answer and fail the completeness check; if
// it were finer (one query under two keys), some query would reach the
// inner server twice.

import (
	"context"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// recorder counts, per query (keyed by its one-to-one String form), how
// often each distinct query reaches the inner server.
type recorder struct {
	inner hiddendb.Server
	seen  map[string]int
}

func (r *recorder) Answer(q dataspace.Query) (hiddendb.Result, error) {
	r.seen[q.String()]++
	return r.inner.Answer(context.Background(), q)
}

func (r *recorder) K() int                    { return r.inner.K() }
func (r *recorder) Schema() *dataspace.Schema { return r.inner.Schema() }

func TestLazySliceCoverQueryCountUnchangedByKeySwap(t *testing.T) {
	ds := datagen.NSFLikeN(2500, 11)
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{inner: srv, seen: map[string]int{}}
	res, err := core.LazySliceCover{}.Crawl(context.Background(), hiddendb.Batched(rec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatal("crawl incomplete — a memo-key collision returned a wrong cached answer")
	}
	for key, c := range rec.seen {
		if c > 1 {
			t.Errorf("query %q reached the server %d times — the binary memo key is finer than the query's predicates", key, c)
		}
	}
	if res.Queries != len(rec.seen) {
		t.Errorf("query cost %d != %d distinct canonical queries — the memo key changed the cost metric",
			res.Queries, len(rec.seen))
	}
}
