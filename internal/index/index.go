// Package index implements the query-evaluation engine behind the simulated
// hidden-database server: given a form query it returns the qualifying
// tuples in descending priority order, stopping as soon as it has one more
// than the server's return limit k.
//
// # Columnar layout
//
// Tuples are stored twice: once as the row slice the server hands back to
// callers (byRank, in descending priority order), and once as
// struct-of-arrays columns — one contiguous []int64 per attribute, indexed
// by rank. All predicate evaluation happens on the columns: checking
// whether the tuple at some rank satisfies a predicate is a single load
// from a dense array, with no per-tuple pointer chase and no per-attribute
// schema lookup (the attribute kinds are flattened into a []bool once at
// build time).
//
// # Access paths
//
// Five access paths are maintained and chosen between per query, the way a
// (very small) relational engine would:
//
//   - a priority-ordered columnar scan that evaluates predicates over
//     8-rank column chunks (a per-chunk survivor bitmask per predicate,
//     ANDed across predicates with early break), so the scan reads each
//     column sequentially instead of tuple-at-a-time; overflowing queries
//     terminate after k+1 matches;
//   - per-attribute secondary indexes — rank-ascending posting lists for
//     categorical equality predicates and value-sorted columns for numeric
//     ranges — cheap when one predicate is selective;
//   - the intersection of the two most selective predicates: posting ∩
//     posting via a galloping (exponential-search) merge of the two
//     rank-ascending lists, and posting ∩ range (or range ∩ range/equality)
//     via a precomputed rank→sorted-position permutation that answers "is
//     this rank inside the value range?" with one load and two compares;
//   - roaring-style bitmap intersection (bitmap.go): low-cardinality
//     categorical attributes (domain ≤ bitmapMaxDomain, store ≥
//     bitmapMinTuples) mirror each value's posting list as array / bitmap /
//     run containers over rank space, so a 2-, 3- or k-way equality
//     intersection is a word-parallel AND — 64 ranks per operation — that
//     enumerates in exactly the rank order Select must return.
//
// Every path returns the same tuples in the same order; the planner's
// choice affects time only, never results.
//
// # Planner
//
// One planner serves Select and Count, and it plans every query from the
// query's own values: the cost of a top-k answer depends on the actual
// candidate sets, not on which attributes the query binds. Its candidate
// step (candidates) is one pass over the predicates that reads each bound
// predicate's exact candidate count — posting-list length or
// binary-searched range width, O(d log n) in all — and keeps the posting
// lists and segment bounds of the two tightest predicates plus the set of
// bitmap-indexed equality attributes. The plan is a stack value; nothing is
// cached between queries.
//
// Pricing (choose) compares costs in ranks touched. Index paths cost their
// exact candidate count with small constant factors for the per-candidate
// work (probe ≈ 2×, sort-restoring range enumeration ≈ 3×); the bitmap path
// costs its word-AND sweep (n/64 words per attribute) plus ~1.5× the
// expected intersection size. The scan costs n for Count, which cannot
// early-exit, and want/jointSel for Select — how deep the early-exiting
// scan must go before it has collected limit+1 matches — clamped to n.
// jointSel is the whole conjunction's selectivity measured on the Store's
// sample (stats.go), capped at m₁/n, the tightest predicate's exact
// selectivity. That cap makes want·n/m₁ a lower bound on the scan cost, so
// the sample is evaluated only when the best index or bitmap cost exceeds
// the bound; most crawl queries never reach it. Ties go to the index path.
// Count additionally answers a single bound predicate from its candidate
// count and an all-bitmap conjunction with a popcount.
//
// # Allocation discipline
//
// Select performs one allocation per call — the result slice, sized exactly
// to the number of returned tuples — regardless of access path: every path
// collects result ranks in sync.Pool-recycled scratch (ranks and bitmap
// words, sorted with the allocation-free slices.Sort where needed) and
// materializes tuples once at the end. Count allocates nothing. The scratch
// pools are per-Store, so the shards of a Sharded store never contend on a
// shared pool.
package index

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hidb/internal/dataspace"
)

// Store holds one relation, its priority order, and its secondary indexes.
// A Store is immutable after New and safe for concurrent readers.
type Store struct {
	schema *dataspace.Schema
	// n is the relation size. For a row-backed store it equals
	// len(byRank); an artifact-backed store (NewFromArtifacts) has no
	// byRank, so the size is carried explicitly.
	n int
	// byRank lists the tuples in descending priority order: byRank[0] is
	// the tuple the server prefers to return first. nil for
	// artifact-backed stores, which materialize rows through row instead.
	byRank []dataspace.Tuple
	// row materializes the tuple at a rank when byRank is nil — the hook
	// an artifact-backed store (e.g. a disk store copying rows out of
	// mmap'd pages) plugs its lazy row source into.
	row func(r int32) dataspace.Tuple
	// isCat flattens the schema's attribute kinds for branch-friendly
	// predicate checks.
	isCat []bool
	// cols is the columnar mirror of byRank: cols[i][r] == byRank[r][i].
	cols [][]int64
	// post[i] maps a categorical value to the ranks holding it, ascending.
	post []map[int64][]int32
	// bitmaps[i] mirrors post[i] as roaring-style rank bitmaps for
	// low-cardinality categorical attributes; nil when the attribute does
	// not qualify (numeric, wide domain, or store too small to pay off).
	bitmaps []*bitmapIndex
	// sortedVal[i] is numeric column i's values sorted ascending (ties in
	// rank order); sortedRank[i] carries the rank of each sorted cell.
	sortedVal  [][]int64
	sortedRank [][]int32
	// rankPos[i][r] is the position of rank r inside sortedVal[i] — the
	// rank→sorted-position permutation the intersection paths use to test
	// range membership in O(1).
	rankPos [][]int32
	// stats is the sampled selectivity statistics driving the cost model.
	// Shards of a Sharded store share one instance.
	stats *SelStats
	// paths counts Select executions per access path.
	paths [numPaths]atomic.Int64
	// scratch recycles the rank buffers of the numeric-range and bitmap
	// paths. It is per-Store (not package-global) so that independent
	// shards of a Sharded store never contend on one pool.
	scratch sync.Pool
	// words recycles the bitmapWords-long word buffers of the bitmap path.
	words sync.Pool
}

// bitmapMaxDomain is the categorical domain size up to which an attribute
// gets a bitmap index: beyond it, per-value bitmaps are too sparse to beat
// the posting list. A variable so tests can widen it.
var bitmapMaxDomain = 64

// bitmapMinTuples is the store size below which bitmap indexes are not
// built: on a store this small every column is cache-resident and the
// posting paths win outright. A variable so tests can drive the bitmap
// paths on test-sized stores.
var bitmapMinTuples = 4096

// New builds a Store over tuples already arranged in descending priority
// order. The tuples must all validate against the schema.
func New(schema *dataspace.Schema, byRank []dataspace.Tuple) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("index: nil schema")
	}
	return newWithStats(schema, byRank, nil)
}

// newWithStats builds a Store, reusing the given selectivity statistics
// when non-nil (the Sharded constructor samples the full relation once and
// shares the result across shards; selectivity is a property of the data
// shape, not of any one priority band).
func newWithStats(schema *dataspace.Schema, byRank []dataspace.Tuple, stats *SelStats) (*Store, error) {
	d := schema.Dims()
	for r, t := range byRank {
		if err := t.Validate(schema); err != nil {
			return nil, fmt.Errorf("index: tuple at rank %d: %w", r, err)
		}
	}
	n := len(byRank)
	s := &Store{
		schema:     schema,
		n:          n,
		byRank:     byRank,
		scratch:    sync.Pool{New: func() any { return new([]int32) }},
		words:      sync.Pool{New: func() any { p := make([]uint64, bitmapWords); return &p }},
		isCat:      make([]bool, d),
		cols:       make([][]int64, d),
		post:       make([]map[int64][]int32, d),
		bitmaps:    make([]*bitmapIndex, d),
		sortedVal:  make([][]int64, d),
		sortedRank: make([][]int32, d),
		rankPos:    make([][]int32, d),
		stats:      stats,
	}
	for i := 0; i < d; i++ {
		col := make([]int64, n)
		for r, t := range byRank {
			col[r] = t[i]
		}
		s.cols[i] = col
		attr := schema.Attr(i)
		if attr.Kind == dataspace.Categorical {
			s.isCat[i] = true
			m := make(map[int64][]int32)
			for r, v := range col {
				m[v] = append(m[v], int32(r))
			}
			s.post[i] = m
			if n >= bitmapMinTuples && attr.DomainSize <= bitmapMaxDomain {
				bi := &bitmapIndex{m: make(map[int64]*rankBitmap, len(m))}
				for v, list := range m {
					bi.m[v] = buildRankBitmap(list)
				}
				s.bitmaps[i] = bi
			}
		} else {
			perm := make([]int32, n)
			for r := range perm {
				perm[r] = int32(r)
			}
			sort.Slice(perm, func(a, b int) bool {
				va, vb := col[perm[a]], col[perm[b]]
				if va != vb {
					return va < vb
				}
				return perm[a] < perm[b]
			})
			vals := make([]int64, n)
			pos := make([]int32, n)
			for p, r := range perm {
				vals[p] = col[r]
				pos[r] = int32(p)
			}
			s.sortedVal[i] = vals
			s.sortedRank[i] = perm
			s.rankPos[i] = pos
		}
	}
	if s.stats == nil {
		s.stats = buildSelStats(schema, byRank)
	}
	return s, nil
}

// Artifacts is the set of prebuilt index structures an artifact-backed
// Store is assembled from: the columnar mirror, the secondary indexes, the
// shared selectivity sample, and a lazy row source. A disk store builds
// these once at write time and hands Open'd slices (often aliasing mmap'd
// file pages) straight to NewFromArtifacts, so the full planner and every
// access path run unchanged against storage the Store does not own.
//
// Invariants the caller must uphold (they mirror what newWithStats builds):
// Cols[i][r] is attribute i of the rank-r tuple; Post[i] maps each
// categorical value to its ranks ascending; SortedVal[i]/SortedRank[i] list
// numeric column i's values ascending (ties in rank order) with the rank of
// each sorted cell; RankPos[i][r] is rank r's position in SortedVal[i]. All
// slices are read-only after construction.
type Artifacts struct {
	// N is the relation size (every per-attribute slice has length N).
	N int
	// Cols is the columnar relation, one []int64 per attribute.
	Cols [][]int64
	// Post holds the posting-list index of each categorical attribute
	// (nil entries for numeric attributes).
	Post []map[int64][]int32
	// SortedVal, SortedRank and RankPos hold the sorted-segment index of
	// each numeric attribute (nil entries for categorical attributes).
	SortedVal  [][]int64
	SortedRank [][]int32
	RankPos    [][]int32
	// Stats is the sampled selectivity statistics; shards of one
	// partitioned store share a single instance so their plans agree
	// with the in-memory engine's.
	Stats *SelStats
	// Row materializes the tuple at a rank. Only result emission calls
	// it — planning and filtering read Cols — and it must return a tuple
	// the caller may retain.
	Row func(r int32) dataspace.Tuple
}

// NewFromArtifacts builds a Store over prebuilt index structures instead of
// a materialized row slice. Bitmap indexes are derived from the posting
// lists under the same gates newWithStats applies (store size, domain
// width), so an artifact-backed store makes bit-identical plan choices to
// the in-memory store it mirrors. The artifacts are trusted (they were
// validated when built); only structural consistency is checked here.
func NewFromArtifacts(schema *dataspace.Schema, a Artifacts) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("index: nil schema")
	}
	d := schema.Dims()
	if len(a.Cols) != d || len(a.Post) != d || len(a.SortedVal) != d ||
		len(a.SortedRank) != d || len(a.RankPos) != d {
		return nil, fmt.Errorf("index: artifacts cover %d attributes, schema has %d", len(a.Cols), d)
	}
	if a.Stats == nil {
		return nil, fmt.Errorf("index: artifacts carry no selectivity statistics")
	}
	if a.N > 0 && a.Row == nil {
		return nil, fmt.Errorf("index: artifacts carry no row source")
	}
	s := &Store{
		schema:     schema,
		n:          a.N,
		row:        a.Row,
		scratch:    sync.Pool{New: func() any { return new([]int32) }},
		words:      sync.Pool{New: func() any { p := make([]uint64, bitmapWords); return &p }},
		isCat:      make([]bool, d),
		cols:       a.Cols,
		post:       a.Post,
		bitmaps:    make([]*bitmapIndex, d),
		sortedVal:  a.SortedVal,
		sortedRank: a.SortedRank,
		rankPos:    a.RankPos,
		stats:      a.Stats,
	}
	for i := 0; i < d; i++ {
		attr := schema.Attr(i)
		if len(a.Cols[i]) != a.N {
			return nil, fmt.Errorf("index: attribute %d column holds %d values, want %d", i, len(a.Cols[i]), a.N)
		}
		if attr.Kind == dataspace.Categorical {
			s.isCat[i] = true
			if a.Post[i] == nil {
				return nil, fmt.Errorf("index: categorical attribute %d has no posting index", i)
			}
			if a.N >= bitmapMinTuples && attr.DomainSize <= bitmapMaxDomain {
				bi := &bitmapIndex{m: make(map[int64]*rankBitmap, len(a.Post[i]))}
				for v, list := range a.Post[i] {
					bi.m[v] = buildRankBitmap(list)
				}
				s.bitmaps[i] = bi
			}
		} else {
			if len(a.SortedVal[i]) != a.N || len(a.SortedRank[i]) != a.N || len(a.RankPos[i]) != a.N {
				return nil, fmt.Errorf("index: numeric attribute %d sorted segment is inconsistent with n=%d", i, a.N)
			}
		}
	}
	return s, nil
}

// tupleAt materializes the tuple at rank r: a direct row-slice load for the
// in-memory store, the lazy row source for artifact-backed ones.
func (s *Store) tupleAt(r int32) dataspace.Tuple {
	if s.byRank != nil {
		return s.byRank[r]
	}
	return s.row(r)
}

// Size returns the number of tuples in the store.
func (s *Store) Size() int { return s.n }

// Schema returns the store's schema.
func (s *Store) Schema() *dataspace.Schema { return s.schema }

// All returns the tuples in priority order. For a row-backed store the
// slice and its tuples are shared and must not be mutated; an
// artifact-backed store materializes every row — callers that only need a
// subset should Select instead.
func (s *Store) All() []dataspace.Tuple {
	if s.byRank != nil || s.n == 0 {
		return s.byRank
	}
	out := make([]dataspace.Tuple, s.n)
	for r := range out {
		out[r] = s.row(int32(r))
	}
	return out
}

// EngineStats identifies the in-memory engine. Artifact-backed engines
// report their own kind.
func (s *Store) EngineStats() EngineStats { return EngineStats{Kind: "mem"} }

// Stats returns the store's sampled selectivity statistics.
func (s *Store) Stats() *SelStats { return s.stats }

// PlanStats returns the planner's cumulative per-access-path Select
// execution counts.
func (s *Store) PlanStats() PlanStats {
	ps := PlanStats{Paths: make(map[string]int64, numPaths)}
	for i, name := range pathNames {
		if v := s.paths[i].Load(); v != 0 {
			ps.Paths[name] = v
			ps.Misses += v
		}
	}
	return ps
}

// PlanStats reports how often each access path executed a Select.
// Counters are cumulative since Store construction.
type PlanStats struct {
	// Hits is always 0 and Misses counts planned Selects (every Select is
	// planned from its own values). Both, like HitRate, remain only for
	// readers of the former plan-cache counters, such as the benchmark
	// harness in perfbench/.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Paths counts Select executions per access path, keyed "scan",
	// "posting", "gallop", "range", "bitmap".
	Paths map[string]int64 `json:"paths,omitempty"`
}

// HitRate returns Hits / (Hits + Misses), 0 when nothing was planned —
// always 0 now that nothing is cached; see Hits.
func (ps PlanStats) HitRate() float64 {
	total := ps.Hits + ps.Misses
	if total == 0 {
		return 0
	}
	return float64(ps.Hits) / float64(total)
}

// Merge accumulates o into ps — the aggregation a partitioned engine
// (Sharded, or a banded disk store) uses to report one planner view over
// its partitions.
func (ps *PlanStats) Merge(o PlanStats) {
	ps.Hits += o.Hits
	ps.Misses += o.Misses
	if ps.Paths == nil {
		ps.Paths = make(map[string]int64, numPaths)
	}
	for k, v := range o.Paths {
		ps.Paths[k] += v
	}
}

// coversAt reports whether the tuple at rank r satisfies every predicate,
// reading the columns directly.
func (s *Store) coversAt(preds []dataspace.Pred, r int32) bool {
	for i := range preds {
		p := &preds[i]
		v := s.cols[i][r]
		if s.isCat[i] {
			if !p.Wild && v != p.Value {
				return false
			}
		} else if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// coversAtSkip is coversAt with the attributes in the skip bitmask assumed
// satisfied — the bitmap path's residual check, which never re-tests the
// equality predicates the bitmap intersection already enforced.
func (s *Store) coversAtSkip(preds []dataspace.Pred, r int32, skip uint64) bool {
	for i := range preds {
		if skip>>uint(i)&1 != 0 {
			continue
		}
		p := &preds[i]
		v := s.cols[i][r]
		if s.isCat[i] {
			if !p.Wild && v != p.Value {
				return false
			}
		} else if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// lowerBound returns the first index with vals[i] >= x.
func lowerBound(vals []int64, x int64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rangeBounds returns the half-open segment of the sorted column whose
// values lie in [lo, hi]. An inverted range (lo > hi, constructible via
// Query.WithRange, which never validates) clamps to an empty segment so
// the planner sees zero candidates instead of a negative count.
func rangeBounds(vals []int64, lo, hi int64) (from, to int) {
	from = lowerBound(vals, lo)
	to = lowerBound(vals, hi+1)
	if to < from {
		to = from
	}
	return from, to
}

// pathKind identifies one access path of the engine.
type pathKind uint8

const (
	pathScan    pathKind = iota // chunked priority-order columnar scan
	pathPosting                 // posting-list walk, optional secondary probe
	pathGallop                  // posting ∩ posting galloping merge
	pathRange                   // sorted-segment enumeration + rank re-sort
	pathBitmap                  // word-parallel bitmap AND
	numPaths
)

// pathNames maps pathKind to the stable names PlanStats reports.
var pathNames = [numPaths]string{"scan", "posting", "gallop", "range", "bitmap"}

// plan is one query's access path plus the value-specific artifacts the
// path runs on. candidates fills in everything but path; choose prices the
// options and sets it.
type plan struct {
	path pathKind
	// bound counts the predicates that constrain the query at all.
	bound int
	// primary is the bound attribute with the fewest candidates; -1 when
	// nothing is bound.
	primary int
	// m is the primary's exact candidate count (n when nothing is bound).
	m int
	// list is the primary posting list (categorical primary).
	list []int32
	// from, to bound the primary sorted-column segment (numeric primary).
	from, to int
	// secondary is the bound attribute with the second-fewest candidates;
	// -1 = none.
	secondary int
	// secList is the secondary posting list (categorical secondary).
	secList []int32
	// secFrom, secTo bound the secondary rank→sorted-position window
	// (numeric secondary).
	secFrom, secTo int32
	// bitmaps is the set of bound equality attributes that carry a bitmap
	// index, as a bitmask, and bmSel the product of their exact
	// selectivities (the independence estimate of their intersection).
	bitmaps uint64
	bmSel   float64
}

// candidates is the planner's candidate step, shared by Select and Count:
// one pass over the predicates reading each bound predicate's exact
// candidate count.
func (s *Store) candidates(preds []dataspace.Pred) plan {
	pl := plan{primary: -1, secondary: -1, m: s.n, bmSel: 1}
	var m2, from2, to2 int
	var list2 []int32
	for i := range preds {
		p := &preds[i]
		var m, from, to int
		var list []int32
		if s.isCat[i] {
			if p.Wild {
				continue
			}
			list = s.post[i][p.Value]
			m = len(list)
			if i < maxBitmapAttrs && s.bitmaps[i] != nil {
				pl.bitmaps |= 1 << uint(i)
				pl.bmSel *= float64(m) / float64(s.n)
			}
		} else {
			if p.Lo == dataspace.NegInf && p.Hi == dataspace.PosInf {
				continue
			}
			from, to = rangeBounds(s.sortedVal[i], p.Lo, p.Hi)
			m = to - from
		}
		pl.bound++
		switch {
		case pl.primary < 0 || m < pl.m:
			pl.secondary, m2, list2, from2, to2 = pl.primary, pl.m, pl.list, pl.from, pl.to
			pl.primary, pl.m, pl.list, pl.from, pl.to = i, m, list, from, to
		case pl.secondary < 0 || m < m2:
			pl.secondary, m2, list2, from2, to2 = i, m, list, from, to
		}
	}
	if pl.secondary >= 0 {
		if s.isCat[pl.secondary] {
			pl.secList = list2
		} else {
			pl.secFrom, pl.secTo = int32(from2), int32(to2)
		}
	}
	return pl
}

// choose prices the candidate step's access paths (see the package
// comment) and sets pl.path to the cheapest. want is a Select's limit+1;
// want 0 prices a Count, whose scan cannot early-exit.
func (s *Store) choose(pl *plan, preds []dataspace.Pred, want int) {
	pl.path = pathScan
	if pl.primary < 0 {
		return
	}
	n := float64(s.n)
	path, best := pathPosting, 2*float64(pl.m)
	switch {
	case !s.isCat[pl.primary]:
		path, best = pathRange, 3*float64(pl.m)
	case pl.secondary >= 0 && s.isCat[pl.secondary] && useGallop(len(pl.secList), s.n):
		path = pathGallop
	}
	if k := bits.OnesCount64(pl.bitmaps); k >= 2 {
		if c := n/64*float64(k) + 1.5*n*pl.bmSel; c < best {
			path, best = pathBitmap, c
		}
	}
	scan := n
	if want > 0 && pl.m > 0 {
		// jointSel is capped at m/n, so the scan reads at least want·n/m
		// ranks; only a best cost above that bound needs the sample.
		scan = min(n, float64(want)*n/float64(pl.m))
		if best > scan {
			scan = min(n, max(scan, float64(want)/s.stats.jointSel(preds)))
		}
	}
	if best <= scan {
		pl.path = path
	}
}

// getScratch returns a pooled rank buffer with at least the given capacity,
// so a steady query stream allocates nothing beyond its result slices.
func (s *Store) getScratch(capacity int) *[]int32 {
	p := s.scratch.Get().(*[]int32)
	if cap(*p) < capacity {
		*p = make([]int32, 0, capacity)
	}
	return p
}

// putScratch returns a rank buffer (possibly grown to ranks) to the pool.
func (s *Store) putScratch(bufp *[]int32, ranks []int32) {
	*bufp = ranks[:0]
	s.scratch.Put(bufp)
}

// tuples materializes result ranks as the exactly sized slice that is a
// Select's one allocation.
func (s *Store) tuples(ranks []int32) []dataspace.Tuple {
	out := make([]dataspace.Tuple, len(ranks))
	for i, r := range ranks {
		out[i] = s.tupleAt(r)
	}
	return out
}

// emit materializes the result ranks collected in a pooled buffer and
// recycles the buffer.
func (s *Store) emit(bufp *[]int32, ranks []int32) []dataspace.Tuple {
	out := s.tuples(ranks)
	s.putScratch(bufp, ranks)
	return out
}

// Select returns up to limit+1 tuples matching q, in descending priority
// order. Returning limit+1 tuples signals the caller that the true result
// exceeds limit (the server's overflow condition). The returned slice shares
// tuple storage with the store.
func (s *Store) Select(q dataspace.Query, limit int) []dataspace.Tuple {
	if limit < 0 {
		limit = 0
	}
	want := limit + 1
	preds := q.Preds()
	pl := s.candidates(preds)
	s.choose(&pl, preds, want)
	s.paths[pl.path].Add(1)
	switch pl.path {
	case pathScan:
		return s.selectScan(preds, want)
	case pathBitmap:
		return s.selectBitmap(preds, &pl, want)
	case pathGallop:
		return s.selectGallop(preds, &pl, want)
	case pathPosting:
		return s.selectPosting(preds, &pl, want)
	default:
		return s.selectRange(preds, &pl, want)
	}
}

// scanChunk is the rank-block width of the chunked scan: 8 ranks per mask
// keeps the per-predicate inner loop unrollable while a chunk of every
// column still fits comfortably in L1.
const scanChunk = 8

// selectScan is the priority-ordered columnar scan, evaluated in
// scanChunk-wide column chunks: each bound predicate computes a survivor
// bitmask over the chunk from one sequential column read, the masks AND
// together (with an early break when a chunk dies), and only survivors are
// emitted — in rank order, since bit i of the mask is rank base+i.
func (s *Store) selectScan(preds []dataspace.Pred, want int) []dataspace.Tuple {
	n := s.n
	bufp := s.getScratch(min(want, n))
	ranks := (*bufp)[:0]
	base := 0
chunks:
	for ; base+scanChunk <= n; base += scanChunk {
		mask := s.chunkMask(preds, base)
		for mask != 0 {
			b := bits.TrailingZeros32(mask)
			mask &= mask - 1
			ranks = append(ranks, int32(base+b))
			if len(ranks) == want {
				break chunks
			}
		}
	}
	for r := base; r < n && len(ranks) < want; r++ {
		if s.coversAt(preds, int32(r)) {
			ranks = append(ranks, int32(r))
		}
	}
	return s.emit(bufp, ranks)
}

// chunkMask evaluates every bound predicate over the scanChunk ranks at
// base, returning the bitmask of ranks satisfying all of them.
func (s *Store) chunkMask(preds []dataspace.Pred, base int) uint32 {
	mask := uint32(1<<scanChunk - 1)
	for i := range preds {
		p := &preds[i]
		var m uint32
		if s.isCat[i] {
			if p.Wild {
				continue
			}
			col := s.cols[i][base : base+scanChunk : base+scanChunk]
			v := p.Value
			for j := 0; j < scanChunk; j++ {
				if col[j] == v {
					m |= 1 << uint(j)
				}
			}
		} else {
			if p.Lo == dataspace.NegInf && p.Hi == dataspace.PosInf {
				continue
			}
			col := s.cols[i][base : base+scanChunk : base+scanChunk]
			lo, hi := p.Lo, p.Hi
			for j := 0; j < scanChunk; j++ {
				if v := col[j]; v >= lo && v <= hi {
					m |= 1 << uint(j)
				}
			}
		}
		mask &= m
		if mask == 0 {
			break
		}
	}
	return mask
}

// planBitmaps appends the rank bitmaps of the attributes in mask to dst,
// sparsest first so it drives the block walk. Posting lists and bitmaps
// are built from the same data, so a value with a posting list has a
// bitmap; callers rule out empty candidate sets first.
func (s *Store) planBitmaps(preds []dataspace.Pred, mask uint64, dst []*rankBitmap) []*rankBitmap {
	for ; mask != 0; mask &= mask - 1 {
		a := bits.TrailingZeros64(mask)
		dst = append(dst, s.bitmaps[a].get(preds[a].Value))
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].card < dst[j-1].card; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// bitmapRanks intersects the bitmaps of the attributes in mask into a
// pooled rank buffer, ascending (already priority order); max >= 0 stops
// the intersection at max ranks. The caller recycles the buffer.
func (s *Store) bitmapRanks(preds []dataspace.Pred, mask uint64, max int) (*[]int32, []int32) {
	var bmArr [maxBitmapAttrs]*rankBitmap
	bms := s.planBitmaps(preds, mask, bmArr[:0])
	wordsp := s.words.Get().(*[]uint64)
	bufp := s.getScratch(1 << 10)
	ranks := intersectInto(bms, *wordsp, (*bufp)[:0], max)
	s.words.Put(wordsp)
	return bufp, ranks
}

// selectBitmap intersects the rank bitmaps of the plan's equality
// predicates and applies the residual predicates, if any, per surviving
// rank. A plan whose bitmaps cover every bound predicate needs no residual
// pass and lets the intersection stop at want ranks.
func (s *Store) selectBitmap(preds []dataspace.Pred, pl *plan, want int) []dataspace.Tuple {
	if bits.OnesCount64(pl.bitmaps) == pl.bound {
		bufp, ranks := s.bitmapRanks(preds, pl.bitmaps, want)
		return s.emit(bufp, ranks)
	}
	bufp, ranks := s.bitmapRanks(preds, pl.bitmaps, -1)
	k := 0
	for _, r := range ranks {
		if s.coversAtSkip(preds, r, pl.bitmaps) {
			ranks[k] = r
			if k++; k == want {
				break
			}
		}
	}
	return s.emit(bufp, ranks[:k])
}

// useGallop decides how a posting ∩ posting intersection tests membership
// of each driving-list rank in the secondary list: a galloping cursor over
// the secondary list versus one load from the secondary attribute's column.
// The driving (shorter) list is walked in full either way, so this is a
// per-candidate cost question. Measured on the paper's workloads (n ≈ 50k,
// every column L2-resident) the single predictable column load beats the
// ~log2(m2) branchy probes of galloping decisively — Figure 11a runs ~30%
// faster on column probes. Galloping pays off only when the column itself
// falls out of cache (multi-million-row stores) while the secondary list
// stays small enough to remain resident.
//
// The intersection filter is intentionally open-coded in selectPosting,
// selectGallop and Count's categorical branches rather than shared through
// a per-rank callback: the loops capture their accumulators (the rank
// buffer / the counter), so a closure-based iterator would escape them to
// the heap and break the one-allocation Select contract the benchmarks
// pin. TestGallopPathsMatchColumnProbe keeps the copies equivalent.
func useGallop(m2, n int) bool {
	return m2 <= 2048 && n >= colCacheTuples
}

// colCacheTuples is the store size (8-byte column cells, ~32 MiB — a
// typical LLC) beyond which columns stop being cache-resident. It is a
// variable only so tests can lower it to drive the galloping paths on
// test-sized stores.
var colCacheTuples = 4 << 20

// selectPosting walks the primary posting list (already rank-ascending),
// rejecting candidates with the cheapest test for the secondary predicate —
// a rank→sorted-position window check (numeric) or a single column load
// (categorical) — before the full predicate check.
func (s *Store) selectPosting(preds []dataspace.Pred, pl *plan, want int) []dataspace.Tuple {
	if pl.bound == 1 {
		// The posting list is the answer.
		return s.tuples(pl.list[:min(want, len(pl.list))])
	}
	bufp := s.getScratch(min(want, len(pl.list)))
	ranks := (*bufp)[:0]
	var pos []int32
	var col []int64
	var secVal int64
	if pl.secondary >= 0 {
		if s.isCat[pl.secondary] {
			col = s.cols[pl.secondary]
			secVal = preds[pl.secondary].Value
		} else {
			pos = s.rankPos[pl.secondary]
		}
	}
	for _, r := range pl.list {
		if pos != nil {
			if p := pos[r]; p < pl.secFrom || p >= pl.secTo {
				continue
			}
		} else if col != nil && col[r] != secVal {
			continue
		}
		if s.coversAt(preds, r) {
			ranks = append(ranks, r)
			if len(ranks) == want {
				break
			}
		}
	}
	return s.emit(bufp, ranks)
}

// selectGallop intersects the two posting lists with a galloping merge:
// the shorter list (the primary) drives, and the cursor into the longer
// one advances by exponential search, skipping runs of non-matching ranks.
func (s *Store) selectGallop(preds []dataspace.Pred, pl *plan, want int) []dataspace.Tuple {
	a, b := pl.list, pl.secList
	bufp := s.getScratch(min(want, len(a)))
	ranks := (*bufp)[:0]
	j := 0
	for _, r := range a {
		j = gallop(b, j, r)
		if j == len(b) {
			break
		}
		if b[j] != r {
			continue
		}
		if s.coversAt(preds, r) {
			ranks = append(ranks, r)
			if len(ranks) == want {
				break
			}
		}
	}
	return s.emit(bufp, ranks)
}

// gallop returns the smallest index >= lo with b[idx] >= target, probing
// exponentially and finishing with a binary search over the final window.
func gallop(b []int32, lo int, target int32) int {
	n := len(b)
	if lo >= n || b[lo] >= target {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < n && b[hi] < target {
		lo = hi
		hi += step
		step <<= 1
	}
	if hi > n {
		hi = n
	}
	// Invariant: b[lo] < target and (hi == n or b[hi] >= target).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// selectRange enumerates the primary sorted-column segment into a pooled
// rank buffer, filters by the secondary predicate while the ranks are
// still in value order, restores rank order with one allocation-free sort,
// and keeps the first want ranks passing the full predicate check.
func (s *Store) selectRange(preds []dataspace.Pred, pl *plan, want int) []dataspace.Tuple {
	seg := s.sortedRank[pl.primary][pl.from:pl.to]
	bufp := s.getScratch(len(seg))
	ranks := (*bufp)[:0]
	switch {
	case pl.secondary < 0:
		ranks = append(ranks, seg...)
	case s.isCat[pl.secondary]:
		col := s.cols[pl.secondary]
		v := preds[pl.secondary].Value
		for _, r := range seg {
			if col[r] == v {
				ranks = append(ranks, r)
			}
		}
	default:
		pos := s.rankPos[pl.secondary]
		for _, r := range seg {
			if p := pos[r]; p >= pl.secFrom && p < pl.secTo {
				ranks = append(ranks, r)
			}
		}
	}
	slices.Sort(ranks)
	k := 0
	for _, r := range ranks {
		if s.coversAt(preds, r) {
			ranks[k] = r
			if k++; k == want {
				break
			}
		}
	}
	return s.emit(bufp, ranks[:k])
}

// SelectBatch answers every query of the batch with the same semantics as
// issuing B Select calls in order: result i is exactly Select(qs[i], limit).
// A single Store evaluates the batch sequentially; the Sharded store
// overrides this with a per-shard parallel fan-out. A cancelled ctx stops
// the evaluation between queries: the answered prefix is returned and the
// caller reads ctx.Err() — with a live ctx the result is always complete,
// so cancellation support can never change what a batch answers.
func (s *Store) SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple {
	out := make([][]dataspace.Tuple, 0, len(qs))
	for _, q := range qs {
		if ctx.Err() != nil {
			return out
		}
		out = append(out, s.Select(q, limit))
	}
	return out
}

// Count returns the exact number of tuples matching q. It shares Select's
// candidate step but prices the scan at n, since counting cannot
// early-exit; result order is irrelevant, so no sorting or allocation
// happens on any path.
func (s *Store) Count(q dataspace.Query) int {
	n := s.n
	preds := q.Preds()
	pl := s.candidates(preds)
	if pl.bound <= 1 || pl.m == 0 {
		// Nothing bound, a single bound predicate, or an empty candidate
		// set: the candidate count is exact.
		return pl.m
	}
	if bits.OnesCount64(pl.bitmaps) == pl.bound {
		// Every bound predicate is a bitmap-indexed equality: popcount the
		// intersection without enumerating a single candidate.
		var bmArr [maxBitmapAttrs]*rankBitmap
		bms := s.planBitmaps(preds, pl.bitmaps, bmArr[:0])
		wordsp := s.words.Get().(*[]uint64)
		c := intersectCount(bms, *wordsp)
		s.words.Put(wordsp)
		return c
	}
	s.choose(&pl, preds, 0)
	c := 0
	switch pl.path {
	case pathScan:
		for r := 0; r < n; r++ {
			if s.coversAt(preds, int32(r)) {
				c++
			}
		}
	case pathBitmap:
		bufp, ranks := s.bitmapRanks(preds, pl.bitmaps, -1)
		for _, r := range ranks {
			if s.coversAtSkip(preds, r, pl.bitmaps) {
				c++
			}
		}
		s.putScratch(bufp, ranks)
	case pathGallop:
		b := pl.secList
		j := 0
		for _, r := range pl.list {
			j = gallop(b, j, r)
			if j == len(b) {
				break
			}
			if b[j] == r && s.coversAt(preds, r) {
				c++
			}
		}
	case pathPosting:
		var pos []int32
		var col []int64
		var secVal int64
		if pl.secondary >= 0 {
			if s.isCat[pl.secondary] {
				col = s.cols[pl.secondary]
				secVal = preds[pl.secondary].Value
			} else {
				pos = s.rankPos[pl.secondary]
			}
		}
		for _, r := range pl.list {
			if pos != nil {
				if p := pos[r]; p < pl.secFrom || p >= pl.secTo {
					continue
				}
			} else if col != nil && col[r] != secVal {
				continue
			}
			if s.coversAt(preds, r) {
				c++
			}
		}
	default:
		for _, r := range s.sortedRank[pl.primary][pl.from:pl.to] {
			if s.coversAt(preds, r) {
				c++
			}
		}
	}
	return c
}
