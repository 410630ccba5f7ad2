package dataspace

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Pred is the predicate a query places on one attribute.
//
// For a numeric attribute the predicate is the inclusive range [Lo, Hi].
// For a categorical attribute it is either the wildcard (Wild=true,
// matching every domain value) or the equality Ai = Value.
type Pred struct {
	// Lo, Hi bound a numeric range predicate (inclusive).
	Lo, Hi int64
	// Wild marks a categorical wildcard predicate (Ai = ⋆).
	Wild bool
	// Value is the constant of a categorical equality predicate.
	Value int64
}

// Query is a conjunction of one predicate per attribute — exactly the kind
// of request a hidden database's search form accepts. A numeric query is
// also a d-dimensional axis-parallel rectangle, which is how the splitting
// algorithms treat it.
//
// Queries are immutable: every refinement operation returns a new Query.
type Query struct {
	schema *Schema
	preds  []Pred
}

// UniverseQuery returns the query covering the whole data space: wildcard on
// every categorical attribute and (NegInf, PosInf) on every numeric one.
func UniverseQuery(s *Schema) Query {
	preds := make([]Pred, s.Dims())
	for i := range preds {
		a := s.Attr(i)
		if a.Kind == Categorical {
			preds[i] = Pred{Wild: true}
		} else {
			preds[i] = Pred{Lo: NegInf, Hi: PosInf}
		}
	}
	return Query{schema: s, preds: preds}
}

// NewQuery builds a query from explicit predicates after validating them
// against the schema.
func NewQuery(s *Schema, preds []Pred) (Query, error) {
	if len(preds) != s.Dims() {
		return Query{}, fmt.Errorf("dataspace: %d predicates for %d attributes", len(preds), s.Dims())
	}
	cp := make([]Pred, len(preds))
	copy(cp, preds)
	q := Query{schema: s, preds: cp}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// Validate checks the query's predicates against its schema.
func (q Query) Validate() error {
	if q.schema == nil {
		return fmt.Errorf("dataspace: query has no schema")
	}
	for i, p := range q.preds {
		a := q.schema.Attr(i)
		switch a.Kind {
		case Categorical:
			if !p.Wild && (p.Value < 1 || p.Value > int64(a.DomainSize)) {
				return fmt.Errorf("dataspace: predicate %s=%d outside domain [1,%d]", a.Name, p.Value, a.DomainSize)
			}
		case Numeric:
			if p.Wild {
				return fmt.Errorf("dataspace: wildcard predicate on numeric attribute %q", a.Name)
			}
			if p.Lo > p.Hi {
				return fmt.Errorf("dataspace: empty range [%d,%d] on %q", p.Lo, p.Hi, a.Name)
			}
			if p.Lo < NegInf || p.Hi > PosInf {
				return fmt.Errorf("dataspace: range on %q exceeds (NegInf, PosInf)", a.Name)
			}
		}
	}
	return nil
}

// Schema returns the schema the query is over.
func (q Query) Schema() *Schema { return q.schema }

// Pred returns the predicate on attribute i.
func (q Query) Pred(i int) Pred { return q.preds[i] }

// Preds returns the query's predicates, aligned with the schema's
// attributes. The slice is shared with the query — callers must treat it as
// read-only. It exists so hot evaluation loops (the index engine's columnar
// coversAt) can avoid a per-attribute Pred copy.
func (q Query) Preds() []Pred { return q.preds }

// Covers reports whether the tuple satisfies every predicate of the query.
func (q Query) Covers(t Tuple) bool {
	for i, p := range q.preds {
		v := t[i]
		if q.schema.Attr(i).Kind == Categorical {
			if !p.Wild && v != p.Value {
				return false
			}
		} else if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// Extent returns the numeric range [lo, hi] of the query on numeric
// attribute i.
func (q Query) Extent(i int) (lo, hi int64) {
	p := q.preds[i]
	return p.Lo, p.Hi
}

// Exhausted reports whether attribute i's extent has shrunk to a single
// value (numeric) or is pinned to a constant (categorical).
func (q Query) Exhausted(i int) bool {
	p := q.preds[i]
	if q.schema.Attr(i).Kind == Categorical {
		return !p.Wild
	}
	return p.Lo == p.Hi
}

// IsPoint reports whether every attribute is exhausted, i.e. the query has
// degenerated into a single point of the data space. A point query can never
// overflow on a solvable instance.
func (q Query) IsPoint() bool {
	for i := range q.preds {
		if !q.Exhausted(i) {
			return false
		}
	}
	return true
}

// IsSlice reports whether the query is a slice query: a single categorical
// equality predicate, wildcard/full-range everywhere else. When it is, the
// attribute index and constant are returned.
func (q Query) IsSlice() (attr int, value int64, ok bool) {
	attr = -1
	for i, p := range q.preds {
		if q.schema.Attr(i).Kind == Categorical {
			if !p.Wild {
				if attr >= 0 {
					return -1, 0, false
				}
				attr, value = i, p.Value
			}
		} else if p.Lo != NegInf || p.Hi != PosInf {
			return -1, 0, false
		}
	}
	if attr < 0 {
		return -1, 0, false
	}
	return attr, value, true
}

// WithRange returns a copy of the query whose predicate on numeric attribute
// i is replaced by [lo, hi].
func (q Query) WithRange(i int, lo, hi int64) Query {
	preds := make([]Pred, len(q.preds))
	copy(preds, q.preds)
	preds[i] = Pred{Lo: lo, Hi: hi}
	return Query{schema: q.schema, preds: preds}
}

// WithValue returns a copy of the query whose predicate on categorical
// attribute i is replaced by the equality Ai = v.
func (q Query) WithValue(i int, v int64) Query {
	preds := make([]Pred, len(q.preds))
	copy(preds, q.preds)
	preds[i] = Pred{Value: v}
	return Query{schema: q.schema, preds: preds}
}

// Split2 performs the paper's 2-way split of the query's rectangle on
// numeric attribute i at value x: the left part gets extent [lo, x-1] and
// the right part [x, hi]. x must lie in (lo, hi]; otherwise the left part
// would be empty.
func (q Query) Split2(i int, x int64) (left, right Query, err error) {
	lo, hi := q.Extent(i)
	if x <= lo || x > hi {
		return Query{}, Query{}, fmt.Errorf("dataspace: 2-way split at %d outside (%d,%d]", x, lo, hi)
	}
	return q.WithRange(i, lo, x-1), q.WithRange(i, x, hi), nil
}

// Split3 performs the paper's 3-way split on numeric attribute i at value x:
// left [lo, x-1], middle [x, x], right [x+1, hi]. When x coincides with an
// endpoint the corresponding side has an empty extent and hasLeft/hasRight
// is false (the paper "discards" such rectangles).
func (q Query) Split3(i int, x int64) (left, mid, right Query, hasLeft, hasRight bool, err error) {
	lo, hi := q.Extent(i)
	if x < lo || x > hi {
		return Query{}, Query{}, Query{}, false, false, fmt.Errorf("dataspace: 3-way split at %d outside [%d,%d]", x, lo, hi)
	}
	mid = q.WithRange(i, x, x)
	if x > lo {
		left = q.WithRange(i, lo, x-1)
		hasLeft = true
	}
	if x < hi {
		right = q.WithRange(i, x+1, hi)
		hasRight = true
	}
	return left, mid, right, hasLeft, hasRight, nil
}

// Contains reports whether q's region fully contains r's region. Both must
// share a schema.
func (q Query) Contains(r Query) bool {
	for i := range q.preds {
		qp, rp := q.preds[i], r.preds[i]
		if q.schema.Attr(i).Kind == Categorical {
			if qp.Wild {
				continue
			}
			if rp.Wild || rp.Value != qp.Value {
				return false
			}
		} else if rp.Lo < qp.Lo || rp.Hi > qp.Hi {
			return false
		}
	}
	return true
}

// Disjoint reports whether q and r cover disjoint regions of the data space.
func (q Query) Disjoint(r Query) bool {
	for i := range q.preds {
		qp, rp := q.preds[i], r.preds[i]
		if q.schema.Attr(i).Kind == Categorical {
			if !qp.Wild && !rp.Wild && qp.Value != rp.Value {
				return true
			}
		} else if qp.Hi < rp.Lo || rp.Hi < qp.Lo {
			return true
		}
	}
	return false
}

// Key-encoding tags. Each predicate contributes a tag byte followed by its
// fixed-width operands, so two queries over the same schema produce equal
// encodings iff their predicates are identical.
const (
	keyWild  = 0x00 // categorical wildcard, no operands
	keyValue = 0x01 // categorical equality, 8-byte value
	keyRange = 0x02 // numeric range, 8-byte lo + 8-byte hi
)

// KeyBufLen sizes the stack buffers callers build AppendKey keys in: a
// numeric predicate takes 17 bytes, so 256 bytes hold the keys of schemas
// with up to 15 numeric attributes (adult's keys are 174 bytes) without
// spilling to the heap. Longer keys still work; they just allocate.
const KeyBufLen = 256

// AppendKey appends a compact binary canonical key for the query to dst and
// returns the extended slice. With a reused buffer it performs no
// allocation, which is what the memo, journal and batcher lookups rely on.
// Two queries over the same schema have equal keys iff they specify
// identical predicates.
func (q Query) AppendKey(dst []byte) []byte {
	for i, p := range q.preds {
		if q.schema.Attr(i).Kind == Categorical {
			if p.Wild {
				dst = append(dst, keyWild)
			} else {
				dst = append(dst, keyValue)
				dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Value))
			}
		} else {
			dst = append(dst, keyRange)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Lo))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Hi))
		}
	}
	return dst
}

// QueryFromKey reconstructs the query over s whose AppendKey encoding is
// key. It rejects every key AppendKey cannot produce for s — a tag that
// does not fit the attribute's kind, missing or stray bytes, predicates
// outside the schema — so an accepted key re-encodes to itself.
func QueryFromKey(s *Schema, key string) (Query, error) {
	preds := make([]Pred, s.Dims())
	rest := key
	operand := func() (int64, bool) {
		if len(rest) < 8 {
			return 0, false
		}
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(rest[i])
		}
		rest = rest[8:]
		return int64(v), true
	}
	for i := range preds {
		if len(rest) == 0 {
			return Query{}, fmt.Errorf("dataspace: key ends before attribute %d", i)
		}
		tag := rest[0]
		rest = rest[1:]
		ok := true
		switch cat := s.Attr(i).Kind == Categorical; {
		case cat && tag == keyWild:
			preds[i] = Pred{Wild: true}
		case cat && tag == keyValue:
			preds[i].Value, ok = operand()
		case !cat && tag == keyRange:
			preds[i].Lo, ok = operand()
			if ok {
				preds[i].Hi, ok = operand()
			}
		default:
			return Query{}, fmt.Errorf("dataspace: bad key tag %d for attribute %d", tag, i)
		}
		if !ok {
			return Query{}, fmt.Errorf("dataspace: key truncated in attribute %d", i)
		}
	}
	if len(rest) > 0 {
		return Query{}, fmt.Errorf("dataspace: %d stray bytes after the key", len(rest))
	}
	return NewQuery(s, preds)
}

// String renders the query with attribute names, e.g.
// "Make=3, Body=⋆, Price∈[0,5000]".
func (q Query) String() string {
	var b strings.Builder
	for i, p := range q.preds {
		if i > 0 {
			b.WriteString(", ")
		}
		a := q.schema.Attr(i)
		if a.Kind == Categorical {
			if p.Wild {
				b.WriteString(a.Name + "=⋆")
			} else {
				fmt.Fprintf(&b, "%s=%d", a.Name, p.Value)
			}
		} else {
			lo, hi := "-inf", "+inf"
			if p.Lo != NegInf {
				lo = strconv.FormatInt(p.Lo, 10)
			}
			if p.Hi != PosInf {
				hi = strconv.FormatInt(p.Hi, 10)
			}
			fmt.Fprintf(&b, "%s∈[%s,%s]", a.Name, lo, hi)
		}
	}
	return b.String()
}
