package main

import (
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
)

func TestVerifier(t *testing.T) {
	ds, err := datagen.Random(datagen.RandomSpec{N: 500, CatDomains: []int{3, 4}, NumRanges: [][2]int64{{0, 9}}, DupRate: 0.2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(ds.Tuples)
	shuffled := append(dataspace.Bag(nil), ds.Tuples...)
	for i, j := 0, len(shuffled)-1; i < j; i, j = i+1, j-1 {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if err := v.check(shuffled); err != nil {
		t.Fatalf("the generated bag in another order was rejected: %v", err)
	}
	for _, drop := range []int{0, 17, len(shuffled) - 1} {
		dropped := append(append(dataspace.Bag(nil), shuffled[:drop]...), shuffled[drop+1:]...)
		if v.check(dropped) == nil {
			t.Errorf("a bag missing tuple %d was accepted", drop)
		}
	}
	if v.check(append(shuffled[1:], shuffled[2])) == nil {
		t.Error("a bag with one tuple replaced by a duplicate of another was accepted")
	}
	if v.check(append(shuffled, shuffled[0])) == nil {
		t.Error("a bag with one tuple twice too often was accepted")
	}
}
