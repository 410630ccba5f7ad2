package main

import (
	"fmt"
	"slices"

	"hidb/internal/dataspace"
)

// verifier checks crawl output against the generated multiset.
type verifier struct {
	want []dataspace.Tuple // canonical order
}

func newVerifier(bag []dataspace.Tuple) *verifier {
	return &verifier{want: sortedTuples(bag)}
}

func sortedTuples(bag []dataspace.Tuple) []dataspace.Tuple {
	s := slices.Clone(bag)
	slices.SortFunc(s, dataspace.Tuple.Compare)
	return s
}

// check returns nil when got holds exactly the generated tuples with their
// multiplicities, and otherwise describes the first difference.
func (v *verifier) check(got []dataspace.Tuple) error {
	g := sortedTuples(got)
	for i := range min(len(g), len(v.want)) {
		if c := g[i].Compare(v.want[i]); c != 0 {
			if c < 0 {
				return fmt.Errorf("crawl returned %v, which is not in the generated bag (or is there fewer times)", g[i])
			}
			return fmt.Errorf("crawl missed %v (or returned it fewer times than generated)", v.want[i])
		}
	}
	if len(g) != len(v.want) {
		return fmt.Errorf("crawl returned %d tuples, the generated bag has %d", len(g), len(v.want))
	}
	return nil
}
