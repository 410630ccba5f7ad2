package index

import (
	"context"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// tierStore builds a Store over one scale-tier dataset. The 10k tier is
// above bitmapMinTuples, so every low-cardinality categorical attribute
// carries a bitmap index.
func tierStore(t *testing.T, p datagen.Pattern, seed uint64) *Store {
	t.Helper()
	d := datagen.Tiered(p, datagen.Tier10K, seed)
	s, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tierQuery draws a random query over the tier schema, spanning arities 0–6
// and occasionally aiming at the pathological needle conjunction.
func tierQuery(sch *dataspace.Schema, rng *simrand.RNG, n int) dataspace.Query {
	q := dataspace.UniverseQuery(sch)
	needle := rng.Bool(0.25)
	for i := 0; i < 3; i++ {
		if needle {
			q = q.WithValue(i, datagen.PathoNeedle)
		} else if rng.Bool(0.5) {
			q = q.WithValue(i, rng.IntRange(1, 32))
		}
	}
	if rng.Bool(0.3) {
		q = q.WithValue(3, rng.IntRange(1, 1024))
	}
	if rng.Bool(0.4) {
		lo := rng.IntRange(0, int64(n-1))
		q = q.WithRange(4, lo, lo+rng.IntRange(0, int64(n/4)))
	}
	if rng.Bool(0.3) {
		lo := rng.IntRange(0, 1<<20)
		q = q.WithRange(5, lo, lo+rng.IntRange(0, 1<<18))
	}
	return q
}

func sameTuples(a, b []dataspace.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameExact is sameTuples plus the exact-size contract: a Select result
// carries no spare capacity, so answer memos that keep it alive for a whole
// crawl hold only the returned tuples.
func sameExact(got, want []dataspace.Tuple) bool {
	return sameTuples(got, want) && len(got) == cap(got)
}

// forceBitmapPlan takes the candidate step's plan onto the bitmap path,
// regardless of cost. ok=false when fewer than two bound equality
// predicates carry bitmap indexes.
func forceBitmapPlan(s *Store, preds []dataspace.Pred) (plan, bool) {
	pl := s.candidates(preds)
	if bits.OnesCount64(pl.bitmaps) < 2 || pl.m == 0 {
		return pl, false
	}
	pl.path = pathBitmap
	return pl, true
}

// indexSelect runs the candidate step's tightest-predicate plan on its
// index path, regardless of cost — the reference the bitmap and
// chunked-scan paths must match.
func indexSelect(s *Store, preds []dataspace.Pred, pl *plan, want int) []dataspace.Tuple {
	if s.isCat[pl.primary] {
		if pl.secondary >= 0 && s.isCat[pl.secondary] && useGallop(len(pl.secList), s.Size()) {
			return s.selectGallop(preds, pl, want)
		}
		return s.selectPosting(preds, pl, want)
	}
	return s.selectRange(preds, pl, want)
}

// TestAccessPathsAgreeAcrossPatterns is the planner oracle: on every
// generator pattern, for random queries of every arity, the chunked scan,
// the posting/gallop/range family, and the bitmap path must all return
// exactly the naive reference answer — same tuples, same order, in a slice
// of exactly that size.
func TestAccessPathsAgreeAcrossPatterns(t *testing.T) {
	for _, p := range datagen.Patterns {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := tierStore(t, p, 11)
			n := s.Size()
			rng := simrand.New(uint64(p) + 101)
			bitmapQueries := 0
			for trial := 0; trial < 150; trial++ {
				q := tierQuery(s.Schema(), rng, n)
				preds := q.Preds()
				for _, limit := range []int{0, 9, 64} {
					want := limit + 1
					expect := naive(s, q, want)
					if got := s.Select(q, limit); !sameExact(got, expect) {
						t.Fatalf("trial %d limit %d: Select diverges from naive on %s", trial, limit, q)
					}
					if got := s.selectScan(preds, want); !sameExact(got, expect) {
						t.Fatalf("trial %d limit %d: chunked scan diverges from naive on %s", trial, limit, q)
					}
					if pl := s.candidates(preds); pl.primary >= 0 {
						if got := indexSelect(s, preds, &pl, want); !sameExact(got, expect) {
							t.Fatalf("trial %d limit %d: index path on attribute %d diverges from naive on %s",
								trial, limit, pl.primary, q)
						}
					}
					if pl, ok := forceBitmapPlan(s, preds); ok {
						bitmapQueries++
						if got := s.selectBitmap(preds, &pl, want); !sameExact(got, expect) {
							t.Fatalf("trial %d limit %d: bitmap path diverges from naive on %s", trial, limit, q)
						}
					}
				}
			}
			if bitmapQueries == 0 {
				t.Fatal("no trial exercised the bitmap path; query generator is broken")
			}
		})
	}
}

// TestAccessPathsAgreeUnderGallop re-runs the oracle with the column-cache
// threshold lowered so the planner routes posting ∩ posting through the
// galloping merge, which test-sized stores never trigger by default.
func TestAccessPathsAgreeUnderGallop(t *testing.T) {
	defer func(v int) { colCacheTuples = v }(colCacheTuples)
	colCacheTuples = 0
	s := tierStore(t, datagen.PatternRandom, 13)
	rng := simrand.New(14)
	for trial := 0; trial < 150; trial++ {
		q := tierQuery(s.Schema(), rng, s.Size())
		got := s.Select(q, 64)
		if !sameExact(got, naive(s, q, 65)) {
			t.Fatalf("trial %d: Select diverges from naive with gallop forced on %s", trial, q)
		}
	}
	if s.PlanStats().Paths["gallop"] == 0 {
		t.Log("no query routed through gallop; acceptable but unexpected")
	}
}

// TestCountMatchesNaiveAcrossPatterns checks Count — including the bitmap
// popcount fast path — against a full scan on every pattern.
func TestCountMatchesNaiveAcrossPatterns(t *testing.T) {
	for _, p := range datagen.Patterns {
		s := tierStore(t, p, 17)
		rng := simrand.New(uint64(p) + 23)
		for trial := 0; trial < 100; trial++ {
			q := tierQuery(s.Schema(), rng, s.Size())
			want := 0
			for _, tu := range s.All() {
				if q.Covers(tu) {
					want++
				}
			}
			if got := s.Count(q); got != want {
				t.Fatalf("%v trial %d: Count = %d, want %d on %s", p, trial, got, want, q)
			}
		}
	}
}

// TestNarrowQueriesAvoidScan pins the failure a per-shape plan cache
// produced: a crawl opens with the broad root query, for which the
// early-exiting scan is right, and then splits it into ever narrower
// rectangles of the same shape. Each narrow query must be planned from its
// own candidate counts, so none of the resolved (non-overflowing) leaves
// may scan the store.
func TestNarrowQueriesAvoidScan(t *testing.T) {
	s := tierStore(t, datagen.PatternRandom, 19)
	sch := s.Schema()
	const limit = 64
	scans := func() int64 { return s.PlanStats().Paths["scan"] }
	var split func(lo, hi int64)
	leaves := 0
	split = func(lo, hi int64) {
		before := scans()
		got := s.Select(dataspace.UniverseQuery(sch).WithRange(5, lo, hi), limit)
		if len(got) <= limit {
			leaves++
			if scans() != before {
				t.Fatalf("narrow query N2 in [%d,%d] (%d tuples) scanned the store", lo, hi, len(got))
			}
			return
		}
		mid := lo + (hi-lo)/2
		split(lo, mid)
		split(mid+1, hi)
	}
	split(0, 1<<20)
	if ps := s.PlanStats(); ps.Paths["scan"] == 0 || leaves < 100 {
		t.Fatalf("root query should scan and the crawl reach >= 100 leaves: paths %v, %d leaves", ps.Paths, leaves)
	}
}

// TestPlanDeterminism runs one query multiset in two orders and through
// the concurrent Sharded.SelectBatch: the per-path execution counts must
// agree exactly, because a plan depends on its query's values and never on
// which queries came before. Under -race the batch doubles as the
// concurrent-reader check of the planner counters and scratch pools.
func TestPlanDeterminism(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRealistic, datagen.Tier10K, 31)
	single, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(41)
	qs := make([]dataspace.Query, 400)
	for i := range qs {
		qs[i] = tierQuery(d.Schema, rng, len(d.Tuples))
	}
	run := func(qs []dataspace.Query, batch bool) PlanStats {
		sh, err := NewSharded(d.Schema, d.Tuples, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !batch {
			for _, q := range qs {
				sh.Select(q, 64)
			}
			return sh.PlanStats()
		}
		got := sh.SelectBatch(context.Background(), qs, 64)
		for i, q := range qs {
			if !sameTuples(got[i], naive(single, q, 65)) {
				t.Fatalf("SelectBatch result %d diverges from naive on %s", i, q)
			}
		}
		return sh.PlanStats()
	}
	reversed := slices.Clone(qs)
	slices.Reverse(reversed)
	forward, reverse, batched := run(qs, false), run(reversed, false), run(qs, true)
	if !maps.Equal(forward.Paths, reverse.Paths) || !maps.Equal(forward.Paths, batched.Paths) {
		t.Fatalf("path counts depend on arrival order: forward %v, reverse %v, batch %v",
			forward.Paths, reverse.Paths, batched.Paths)
	}
	if len(forward.Paths) < 3 {
		t.Fatalf("query mix exercised only %v; generator too narrow", forward.Paths)
	}
}

// TestWideSchemaBitmapMask covers schemas wider than the 64-attribute
// bitmap mask: equality predicates beyond attribute 63 never join a bitmap
// plan, and stay enforced as residual checks when one runs.
func TestWideSchemaBitmapMask(t *testing.T) {
	const d = 70
	attrs := make([]dataspace.Attribute, d)
	for i := range attrs {
		attrs[i] = dataspace.Attribute{
			Name: fmt.Sprintf("C%d", i+1), Kind: dataspace.Categorical, DomainSize: 4,
		}
	}
	sch := dataspace.MustSchema(attrs)
	rng := simrand.New(43)
	tuples := make([]dataspace.Tuple, bitmapMinTuples)
	for i := range tuples {
		tu := make(dataspace.Tuple, d)
		for j := range tu {
			tu[j] = rng.IntRange(1, 4)
		}
		tuples[i] = tu
	}
	s, err := New(sch, tuples)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		q := dataspace.UniverseQuery(sch)
		for _, j := range []int{rng.Intn(64), rng.Intn(64), rng.Intn(64), rng.Intn(64), 64 + rng.Intn(d-64), 64 + rng.Intn(d-64)} {
			q = q.WithValue(j, rng.IntRange(1, 4))
		}
		if !sameExact(s.Select(q, 10), naive(s, q, 11)) {
			t.Fatalf("trial %d: wide-schema Select diverges from naive", trial)
		}
		if got, want := s.Count(q), len(naive(s, q, len(tuples))); got != want {
			t.Fatalf("trial %d: wide-schema Count = %d, want %d", trial, got, want)
		}
	}
	if s.PlanStats().Paths["bitmap"] == 0 {
		t.Fatal("no wide-schema query ran the bitmap path")
	}
}

// TestShardedSharesStatsKeepsPlans pins the Sharded contract: one shared
// selectivity sample, per-shard planning, aggregated PlanStats.
func TestShardedSharesStatsKeepsPlans(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRandom, datagen.Tier10K, 47)
	sh, err := NewSharded(d.Schema, d.Tuples, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sh.shards); i++ {
		if sh.shards[i].stats != sh.shards[0].stats {
			t.Fatal("shards should share one SelStats instance")
		}
	}
	if got := sh.shards[0].stats.SampleSize(); got != statsSampleMax {
		t.Fatalf("shared sample size = %d, want %d", got, statsSampleMax)
	}
	rng := simrand.New(48)
	for i := 0; i < 40; i++ {
		q := tierQuery(d.Schema, rng, len(d.Tuples))
		got := sh.Select(q, 64)
		single, err := New(d.Schema, d.Tuples)
		_ = err
		if !sameTuples(got, naive(single, q, 65)) {
			t.Fatalf("sharded Select diverges from naive on %s", q)
		}
	}
	ps := sh.PlanStats()
	if ps.Misses < 40 {
		t.Fatalf("sharded PlanStats should aggregate shard counters, got %+v", ps)
	}
}

// TestSelStats sanity-checks the sampled statistics themselves.
func TestSelStats(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRandom, datagen.Tier10K, 53)
	s, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SampleSize() != statsSampleMax {
		t.Fatalf("sample size = %d, want %d", st.SampleSize(), statsSampleMax)
	}
	sch := d.Schema
	uni := dataspace.UniverseQuery(sch)
	if sel := st.jointSel(uni.Preds()); sel != 1 {
		t.Fatalf("universe selectivity = %v, want 1", sel)
	}
	// A value outside the generated domain: floored, never zero.
	impossible := uni.WithValue(0, 31337)
	if sel := st.jointSel(impossible.Preds()); sel <= 0 || sel > 1.0/float64(statsSampleMax) {
		t.Fatalf("impossible-predicate selectivity = %v, want the 0.5/S floor", sel)
	}
	// Uniform 32-way categorical: second moment near 1/32.
	if es := st.EqSel(0); es < 0.01 || es > 0.1 {
		t.Fatalf("EqSel(C1) = %v, want ≈ 1/32", es)
	}
	if es := st.EqSel(4); es != 0 {
		t.Fatalf("EqSel(numeric) = %v, want 0", es)
	}
	// A sample whose size is not a multiple of 64 (1000 rows): the
	// estimate is the sampled match fraction, floored.
	small, err := New(d.Schema, d.Tuples[:1000])
	if err != nil {
		t.Fatal(err)
	}
	rows := small.Stats().SampleRows()
	rng := simrand.New(54)
	for trial := 0; trial < 200; trial++ {
		q := tierQuery(sch, rng, 1000)
		matched := 0
		for _, r := range rows {
			if q.Covers(r) {
				matched++
			}
		}
		want := max(float64(matched), 0.5) / float64(len(rows))
		if got := small.Stats().jointSel(q.Preds()); got != want {
			t.Fatalf("trial %d: jointSel = %v, want %v on %s", trial, got, want, q)
		}
	}
	// Empty store: selectivity defaults to 1, nothing divides by zero.
	empty, err := New(d.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel := empty.Stats().jointSel(uni.Preds()); sel != 1 {
		t.Fatalf("empty-store selectivity = %v, want 1", sel)
	}
	if got := empty.Select(uni, 5); len(got) != 0 {
		t.Fatalf("empty-store Select returned %d tuples", len(got))
	}
}

// TestSelectAllocsSteadyState pins the one-allocation Select contract on
// every access path: once the scratch pools are warm, a Select allocates
// exactly its result slice.
func TestSelectAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	s := tierStore(t, datagen.PatternPathological, 67)
	sch := s.Schema()
	needle := dataspace.UniverseQuery(sch).
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
	cases := []struct {
		name string
		q    dataspace.Query
	}{
		{"scan", dataspace.UniverseQuery(sch)},
		{"posting", dataspace.UniverseQuery(sch).WithValue(3, 7)},
		{"range", dataspace.UniverseQuery(sch).WithRange(4, 100, 3000).WithValue(0, 2)},
		{"bitmap", needle},
	}
	for _, tc := range cases {
		q := tc.q
		s.Select(q, 64) // pool warmup before measuring
		allocs := testing.AllocsPerRun(100, func() {
			s.Select(q, 64)
		})
		if allocs > 1 {
			t.Errorf("%s path: %.1f allocs per Select, want <= 1", tc.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Count(needle) }); allocs > 0 {
		t.Errorf("Count: %.1f allocs, want 0", allocs)
	}
}

// TestPlannerPicksBitmapForNeedle pins the cost model's headline decision:
// the pathological 3-way intersection must route to the bitmap path (and a
// broad single equality must not).
func TestPlannerPicksBitmapForNeedle(t *testing.T) {
	s := tierStore(t, datagen.PatternPathological, 71)
	sch := s.Schema()
	needle := dataspace.UniverseQuery(sch).
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
	s.Select(needle, 64)
	if ps := s.PlanStats(); ps.Paths["bitmap"] != 1 {
		t.Fatalf("needle conjunction executed paths %v, want the bitmap path", ps.Paths)
	}
	broad := dataspace.UniverseQuery(sch).WithValue(0, datagen.PathoNeedle)
	s.Select(broad, 64)
	if ps := s.PlanStats(); ps.Paths["bitmap"] != 1 {
		t.Fatalf("broad single equality should not use the bitmap path: %v", ps.Paths)
	}
}

// TestBitmapGatesRespected checks the build-time gating: small stores and
// wide-domain attributes must not pay for bitmap indexes.
func TestBitmapGatesRespected(t *testing.T) {
	d := datagen.Tiered(datagen.PatternRandom, datagen.Tier10K, 59)
	s, err := New(d.Schema, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if s.bitmaps[i] == nil {
			t.Fatalf("C%d (domain 32) should carry a bitmap index at 10k tuples", i+1)
		}
	}
	if s.bitmaps[3] != nil {
		t.Fatal("C4 (domain 1024) must not carry a bitmap index")
	}
	if s.bitmaps[4] != nil || s.bitmaps[5] != nil {
		t.Fatal("numeric attributes must not carry bitmap indexes")
	}
	small, err := New(d.Schema, d.Tuples[:1000])
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.bitmaps {
		if small.bitmaps[i] != nil {
			t.Fatalf("a 1000-tuple store should build no bitmap indexes (attr %d)", i)
		}
	}
}
