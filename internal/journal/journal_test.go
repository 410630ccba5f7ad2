package journal

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          3000,
		CatDomains: []int{4, 9},
		NumRanges:  [][2]int64{{0, 5000}},
		Skew:       0.6,
		DupRate:    0.05,
	}, 23)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRecordLookup(t *testing.T) {
	ds := testDataset(t)
	j := New(ds.Schema, 16)
	q := dataspace.UniverseQuery(ds.Schema).WithValue(0, 2)
	if _, ok := j.Lookup(q); ok {
		t.Fatal("empty journal answered a query")
	}
	res := hiddendb.Result{Overflow: true, Tuples: ds.Tuples[:3]}
	j.Record(q, res)
	got, ok := j.Lookup(q)
	if !ok || got.Overflow != true || len(got.Tuples) != 3 {
		t.Fatal("recorded entry not returned")
	}
	// Re-recording is a no-op.
	j.Record(q, hiddendb.Result{})
	got, _ = j.Lookup(q)
	if len(got.Tuples) != 3 {
		t.Fatal("re-record overwrote the entry")
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j.Len())
	}
}

// TestLookupHitAllocs: a replay builds the query's key on the stack and
// probes the map without copying it, so a journal hit allocates nothing —
// on the adult schema too, whose keys are 174 bytes.
func TestLookupHitAllocs(t *testing.T) {
	for _, ds := range []*datagen.Dataset{testDataset(t), datagen.AdultLikeN(100, 1)} {
		j := New(ds.Schema, 16)
		q := dataspace.UniverseQuery(ds.Schema).WithValue(0, 2)
		j.Record(q, hiddendb.Result{Tuples: ds.Tuples[:2]})
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := j.Lookup(q); !ok {
				t.Fatal("recorded query missed")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a journal hit allocates %.1f times, want 0", ds.Name, allocs)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	ds := testDataset(t)
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	j := New(ds.Schema, 16)
	wrapped, err := Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	// Run a full crawl to populate the journal with a realistic mix of
	// queries (wildcards, pins, ranges, ±inf extents).
	if _, err := (core.Hybrid{}).Crawl(context.Background(), wrapped, nil); err != nil {
		t.Fatal(err)
	}
	if j.Len() == 0 {
		t.Fatal("crawl recorded nothing")
	}

	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != j.Len() || back.K() != 16 {
		t.Fatalf("round trip: len %d->%d k=%d", j.Len(), back.Len(), back.K())
	}
	if back.Schema().String() != ds.Schema.String() {
		t.Fatal("schema lost in round trip")
	}
	// Every original entry must replay identically.
	for _, key := range j.order {
		q, err := dataspace.QueryFromKey(ds.Schema, key)
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		want := j.entries[key]
		got, ok := back.Lookup(q)
		if !ok {
			t.Fatalf("entry %q missing after round trip", key)
		}
		if got.Overflow != want.Overflow || !got.Tuples.EqualMultiset(want.Tuples) {
			t.Fatalf("entry %q differs after round trip", key)
		}
	}
}

func TestReadFromErrors(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("garbage")); err == nil {
		t.Error("garbage journal accepted")
	}
	// Truncated: header promises entries that never come.
	ds := testDataset(t)
	j := New(ds.Schema, 8)
	j.Record(dataspace.UniverseQuery(ds.Schema), hiddendb.Result{})
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.String()
	trunc = trunc[:strings.Index(trunc, "\n")+1] // keep only the header
	if _, err := ReadFrom(strings.NewReader(trunc)); err == nil {
		t.Error("truncated journal accepted")
	}
}

func TestWrapValidation(t *testing.T) {
	ds := testDataset(t)
	srv, _ := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 1)
	if _, err := Wrap(srv, New(ds.Schema, 8)); err == nil {
		t.Error("k mismatch accepted")
	}
	other := dataspace.MustSchema([]dataspace.Attribute{{Name: "X", Kind: dataspace.Numeric}})
	if _, err := Wrap(srv, New(other, 16)); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestResumeAfterQuota is the package's reason to exist: a crawl that dies
// on a query quota resumes from its journal and completes, paying in total
// exactly what an uninterrupted crawl pays.
func TestResumeAfterQuota(t *testing.T) {
	ds := testDataset(t)
	k := 16

	// Reference: uninterrupted cost.
	ref, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	full, err := (core.Hybrid{}).Crawl(context.Background(), ref, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted runs: 40 queries per "day".
	journal := New(ds.Schema, k)
	budget := 40
	sessions := 0
	for {
		sessions++
		if sessions > 100 {
			t.Fatal("resume did not converge")
		}
		srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, k, 42)
		if err != nil {
			t.Fatal(err)
		}
		quotaed := hiddendb.NewQuota(srv, budget)
		wrapped, err := Wrap(quotaed, journal)
		if err != nil {
			t.Fatal(err)
		}

		// Persist/restore between sessions, as a real crawler would.
		var buf bytes.Buffer
		if _, err := journal.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		journal, err = ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err = Wrap(quotaed, journal)
		if err != nil {
			t.Fatal(err)
		}

		res, err := (core.Hybrid{}).Crawl(context.Background(), wrapped, nil)
		if errors.Is(err, hiddendb.ErrQuotaExceeded) {
			continue // next day, fresh budget
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tuples.EqualMultiset(ds.Tuples) {
			t.Fatal("resumed crawl incomplete")
		}
		break
	}

	if sessions < 2 {
		t.Fatalf("test did not exercise resume (budget too big? full cost %d)", full.Queries)
	}
	// Total paid queries across all sessions == journal size == the
	// uninterrupted cost (determinism makes the replay exact).
	if journal.Len() != full.Queries {
		t.Fatalf("total paid queries %d != uninterrupted cost %d", journal.Len(), full.Queries)
	}
	t.Logf("completed in %d sessions of %d queries (total %d)", sessions, budget, journal.Len())
}

func TestReplaysCounted(t *testing.T) {
	ds := testDataset(t)
	srv, _ := hiddendb.NewLocal(ds.Schema, ds.Tuples, 16, 42)
	j := New(ds.Schema, 16)
	w1, err := Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.Hybrid{}).Crawl(context.Background(), w1, nil); err != nil {
		t.Fatal(err)
	}
	paid := j.Len()

	// Second run over the same journal replays everything.
	w2, err := Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.Hybrid{}).Crawl(context.Background(), w2, nil); err != nil {
		t.Fatal(err)
	}
	if j.Len() != paid {
		t.Fatalf("second run paid %d extra queries", j.Len()-paid)
	}
	if w2.Replays() == 0 {
		t.Fatal("second run reported no replays")
	}
}
