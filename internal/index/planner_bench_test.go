package index

import (
	"sync"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
)

// patho1M lazily builds the shared million-tuple pathological store: every
// match of the needle conjunction sits at the bottom of the rank space, so
// no access path can early-exit near the top — the workload the bitmap
// path exists for. Built once per bench binary (~1M tuples × 6 attributes
// plus all indexes).
var patho1M struct {
	once sync.Once
	s    *Store
}

func patho1MStore(b *testing.B) *Store {
	b.Helper()
	patho1M.once.Do(func() {
		d := datagen.Tiered(datagen.PatternPathological, datagen.Tier1M, 1)
		s, err := New(d.Schema, d.Tuples)
		if err != nil {
			b.Fatal(err)
		}
		patho1M.s = s
	})
	return patho1M.s
}

// needleQuery is the 3-way intersection C1=C2=C3=needle: each predicate
// alone matches ~31k of the million tuples, the conjunction only the
// bottom ~1k ranks.
func needleQuery(s *Store) dataspace.Query {
	return dataspace.UniverseQuery(s.Schema()).
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
}

// BenchmarkSelect3WayIntersect1M measures the planner on the needle
// conjunction — the cost model routes it to the word-parallel bitmap AND.
// Compare against BenchmarkSelect3WayIntersect1MV1, the tightest posting
// list's plan on the identical query (the bitmap path's speedup pair).
func BenchmarkSelect3WayIntersect1M(b *testing.B) {
	s := patho1MStore(b)
	q := needleQuery(s)
	s.Select(q, 64) // warm the scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) != 65 {
			b.Fatalf("needle select returned %d tuples", len(got))
		}
	}
}

// BenchmarkSelect3WayIntersect1MV1 runs the identical needle query on the
// candidate step's tightest posting list (~170k ranks), walked with
// per-candidate column probes — the plan a cost model blind to the
// intersection being three orders of magnitude smaller would pick.
func BenchmarkSelect3WayIntersect1MV1(b *testing.B) {
	s := patho1MStore(b)
	q := needleQuery(s)
	preds := q.Preds()
	pl := s.candidates(preds)
	if pl.primary < 0 || !s.isCat[pl.primary] {
		b.Fatal("expected a posting-list plan")
	}
	s.Select(q, 64) // same warmup as the planned side
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := indexSelect(s, preds, &pl, 65); len(got) != 65 {
			b.Fatalf("posting-walk needle select returned %d tuples", len(got))
		}
	}
}

// BenchmarkSelectLowCardEq1M measures a single low-cardinality equality on
// the 1M store. The sampled cost model sends this broad predicate (~3%
// selective) to the early-exiting chunked scan, not the 31k-rank posting
// walk the fixed n/4 margin used to pick.
func BenchmarkSelectLowCardEq1M(b *testing.B) {
	s := patho1MStore(b)
	q := dataspace.UniverseQuery(s.Schema()).WithValue(1, 5)
	s.Select(q, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) != 65 {
			b.Fatalf("low-card equality returned %d tuples", len(got))
		}
	}
}

// BenchmarkSelectRangeEq1M measures range ∩ equality on the 1M store: a
// 5k-rank numeric segment filtered by a categorical probe, rank-restored
// with the pooled sort.
func BenchmarkSelectRangeEq1M(b *testing.B) {
	s := patho1MStore(b)
	q := dataspace.UniverseQuery(s.Schema()).
		WithRange(4, 0, 5000).
		WithValue(0, datagen.PathoNeedle+1)
	s.Select(q, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Select(q, 64); len(got) == 0 {
			b.Fatal("range ∩ equality matched nothing")
		}
	}
}

// BenchmarkCount3Way1M measures the popcount fast path: an all-bitmap
// conjunction counted without enumerating a single candidate.
func BenchmarkCount3Way1M(b *testing.B) {
	s := patho1MStore(b)
	q := needleQuery(s)
	want := s.Size() / 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := s.Count(q); c != want {
			b.Fatalf("needle count = %d, want %d", c, want)
		}
	}
}
