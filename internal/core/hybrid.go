package core

import (
	"context"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// Hybrid is the paper's algorithm for mixed data spaces (§5): it runs
// lazy-slice-cover over the categorical prefix (with every numeric predicate
// pinned to the full range, emulating a categorical server) and, upon
// reaching a categorical point whose slice could not answer it locally,
// invokes rank-shrink over the numeric subspace with the categorical
// coordinates fixed (emulating a numeric server).
//
// Cost (Lemma 9): (n/k)·Σ min{Ui, n/k} + Σ Ui + O((d−cat)·n/k) for cat > 1,
// and U1 + O(d·n/k) for cat = 1. Degenerate cases are handled naturally:
// cat = 0 is exactly rank-shrink and cat = d exactly lazy-slice-cover.
type Hybrid struct {
	// EagerSlices switches the categorical phase from lazy-slice-cover to
	// eager slice-cover (all slice queries issued up front). The paper's
	// hybrid uses the lazy variant; the eager one exists for the ablation
	// study.
	EagerSlices bool
}

// Name implements Crawler.
func (h Hybrid) Name() string {
	if h.EagerSlices {
		return "hybrid-eager"
	}
	return "hybrid"
}

// Crawl implements Crawler. Any schema is accepted.
func (h Hybrid) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	sch := srv.Schema()
	cat := sch.Cat()

	if cat == 0 {
		// Purely numeric: hybrid degenerates to rank-shrink.
		s := newSession(ctx, srv, opts, false)
		if err := rankShrink(s, dataspace.UniverseQuery(sch)); err != nil {
			return nil, err
		}
		return s.finish(), nil
	}

	s := newSession(ctx, srv, opts, true)
	oracle := newSliceOracle(s)

	if h.EagerSlices {
		for i := 0; i < cat; i++ {
			for v := int64(1); v <= int64(sch.Attr(i).DomainSize); v++ {
				if _, err := oracle.get(i, v); err != nil {
					return nil, err
				}
			}
		}
	}

	if cat == 1 {
		// cat = 1 (Theorem 1, fourth bullet): the slice queries on A1 are
		// the level-1 node queries; each overflowing one is finished by
		// rank-shrink. Total cost U1 + O(d·n/k).
		for v := int64(1); v <= int64(sch.Attr(0).DomainSize); v++ {
			res, err := oracle.get(0, v)
			if err != nil {
				return nil, err
			}
			if res.Resolved() {
				s.emit(res.Tuples)
				continue
			}
			if err := numericSolve(s, dataspace.UniverseQuery(sch).WithValue(0, v)); err != nil {
				return nil, err
			}
		}
		return s.finish(), nil
	}

	root := dataspace.UniverseQuery(sch)
	if !h.EagerSlices {
		res, err := s.issue(root)
		if err != nil {
			return nil, err
		}
		if res.Resolved() {
			s.emit(res.Tuples)
			return s.finish(), nil
		}
	}
	if err := extendedDFS(s, oracle, root, 0, cat); err != nil {
		return nil, err
	}
	return s.finish(), nil
}
