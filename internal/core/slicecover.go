package core

import (
	"context"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// SliceCover is the paper's optimal algorithm for categorical spaces (§3.2).
// A preprocessing phase issues every slice query (Ai = c with wildcards
// elsewhere) and records the responses in a lookup table; extended-DFS then
// walks the data-space tree, answering a child's query locally — without a
// server round-trip — whenever the slice query matching the child's new
// predicate resolved.
//
// Cost: at most Σ Ui + (n/k)·Σ min{Ui, n/k} queries for d > 1, and exactly
// U1 for d = 1 (Lemma 4); asymptotically optimal (Theorem 4).
type SliceCover struct{}

// Name implements Crawler.
func (SliceCover) Name() string { return "slice-cover" }

// Crawl implements Crawler. The server's schema must be purely categorical.
func (SliceCover) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	if !srv.Schema().IsCategorical() {
		return nil, ErrWrongSpace
	}
	return sliceCoverCrawl(ctx, srv, opts, true)
}

// LazySliceCover is slice-cover with the paper's laziness heuristic: slice
// queries are issued only when extended-DFS first needs them, and memoized
// so later consultations are free. It never issues more queries than
// slice-cover (Lemma 4 applies unchanged) and was the clear practical winner
// in the paper's Figure 11.
type LazySliceCover struct{}

// Name implements Crawler.
func (LazySliceCover) Name() string { return "lazy-slice-cover" }

// Crawl implements Crawler. The server's schema must be purely categorical.
func (LazySliceCover) Crawl(ctx context.Context, srv hiddendb.Server, opts *Options) (*Result, error) {
	if !srv.Schema().IsCategorical() {
		return nil, ErrWrongSpace
	}
	return sliceCoverCrawl(ctx, srv, opts, false)
}

// sliceOracle hands extended-DFS the response of a slice query. Both the
// eager table and the lazy variant are just the memoizing session view; the
// only difference is whether a preprocessing pass has already populated it.
type sliceOracle struct {
	s        *session
	universe dataspace.Query
}

func newSliceOracle(s *session) sliceOracle {
	return sliceOracle{s: s, universe: dataspace.UniverseQuery(s.schema)}
}

// get issues the slice query "attr = value, wildcard elsewhere" (numeric
// attributes, present only under hybrid, get full ranges). The query is
// built per call and not retained: the memo keeps only its key.
func (o sliceOracle) get(attr int, value int64) (hiddendb.Result, error) {
	return o.s.issue(o.universe.WithValue(attr, value))
}

// sliceCoverCrawl runs slice-cover (eager=true) or lazy-slice-cover
// (eager=false) over a purely categorical server.
func sliceCoverCrawl(ctx context.Context, srv hiddendb.Server, opts *Options, eager bool) (*Result, error) {
	s := newSession(ctx, srv, opts, true) // memoized: repeated queries are free
	sch := s.schema
	oracle := newSliceOracle(s)

	anyOverflow := false
	if eager {
		// Preprocessing phase: run every slice query up front.
		for i := 0; i < sch.Dims(); i++ {
			if sch.Attr(i).Kind != dataspace.Categorical {
				continue
			}
			for v := int64(1); v <= int64(sch.Attr(i).DomainSize); v++ {
				res, err := oracle.get(i, v)
				if err != nil {
					return nil, err
				}
				if res.Overflow {
					anyOverflow = true
				}
			}
		}
	}

	if sch.Dims() == 1 {
		// d = 1: the slice queries are the level-1 point queries; the
		// lookup table IS the database (cost exactly U1). The lazy variant
		// still needs to issue them.
		for v := int64(1); v <= int64(sch.Attr(0).DomainSize); v++ {
			res, err := oracle.get(0, v)
			if err != nil {
				return nil, err
			}
			if res.Overflow {
				return nil, ErrUnsolvable
			}
			s.emit(res.Tuples)
		}
		return s.finish(), nil
	}

	root := dataspace.UniverseQuery(sch)
	if eager && !anyOverflow {
		// Every slice resolved, so every child of the root is answerable
		// locally; extendedDFS below will not contact the server at all.
		if err := extendedDFS(s, oracle, root, 0, sch.Dims()); err != nil {
			return nil, err
		}
		return s.finish(), nil
	}
	if eager && anyOverflow {
		// The paper's trick: some slice overflowed, so the root certainly
		// overflows — skip its query and descend directly.
		if err := extendedDFS(s, oracle, root, 0, sch.Dims()); err != nil {
			return nil, err
		}
		return s.finish(), nil
	}

	// Lazy variant: nothing is known yet, so the root query is issued.
	res, err := s.issue(root)
	if err != nil {
		return nil, err
	}
	if res.Resolved() {
		s.emit(res.Tuples)
		return s.finish(), nil
	}
	if err := extendedDFS(s, oracle, root, 0, sch.Dims()); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// extendedDFS explores the children of an overflowing data-space-tree node
// at the given level (0-based: the node has attributes 0..level-1 pinned).
// catDims is the number of leading categorical attributes; a child at depth
// catDims is a categorical point and is finished with numericSolve, which
// degenerates to a single (necessarily resolved) point query in a purely
// categorical space.
//
// For each child, the oracle's slice response is consulted first: if the
// slice resolved, the child's answer is computed locally with no server
// round-trip (Lemma 3 guarantees the slice's bag contains the child's bag).
// The child query itself is built only when it is issued or recursed into.
func extendedDFS(s *session, oracle sliceOracle, q dataspace.Query, level, catDims int) error {
	u := s.schema.Attr(level).DomainSize
	for v := int64(1); v <= int64(u); v++ {
		slice, err := oracle.get(level, v)
		if err != nil {
			return err
		}
		if slice.Resolved() {
			// Answer locally: the child's result is the subset of the
			// slice's result satisfying the child's other predicates.
			s.emitSlice(slice.Tuples, q, level, v)
			continue
		}
		child := q.WithValue(level, v)
		if level+1 == catDims {
			// Categorical point reached. Pure categorical: one point
			// query, which must resolve. Mixed (hybrid): rank-shrink over
			// the numeric subspace with the categorical prefix pinned.
			if err := numericSolve(s, child); err != nil {
				return err
			}
			continue
		}
		res, err := s.issue(child)
		if err != nil {
			return err
		}
		if res.Resolved() {
			s.emit(res.Tuples)
			continue
		}
		if err := extendedDFS(s, oracle, child, level+1, catDims); err != nil {
			return err
		}
	}
	return nil
}

// numericSolve finishes a query whose categorical attributes are all pinned.
// With no numeric attributes it is a single point query; otherwise it is an
// instance of rank-shrink over the numeric subspace (§5).
func numericSolve(s *session, q dataspace.Query) error {
	return rankShrink(s, q)
}
