package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// FuzzQueryFromKey checks the journal's key decoder,
// dataspace.QueryFromKey: arbitrary key strings either parse into a query
// whose binary Query.AppendKey encoding is the key itself, or are rejected
// — never panic, never mis-parse. The encoding is fixed-width, so every
// accepted key is canonical.
func FuzzQueryFromKey(f *testing.F) {
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 9},
		{Name: "N", Kind: dataspace.Numeric},
	})
	u := dataspace.UniverseQuery(schema)
	for _, q := range []dataspace.Query{u, u.WithValue(0, 3).WithRange(1, -10, 10), u.WithValue(0, 9).WithRange(1, 0, 5)} {
		f.Add(string(q.AppendKey(nil)))
	}
	f.Add("")
	f.Add("\x00\x02")                                      // truncated range operands
	f.Add("\x01\x0a" + strings.Repeat("\x00", 7) + "\x02") // value outside the domain, then truncated
	f.Add("\x02" + strings.Repeat("\x00", 16) + "\x00")    // tags in the wrong order
	f.Fuzz(func(t *testing.T, key string) {
		q, err := dataspace.QueryFromKey(schema, key)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if canon := string(q.AppendKey(nil)); canon != key {
			t.Fatalf("key %q parsed to %v, which keys as %q", key, q, canon)
		}
	})
}

// fuzzSeedJournal builds a tiny, fully known journal for the decoder fuzz.
func fuzzSeedJournal(f *testing.F) *Journal {
	f.Helper()
	schema := dataspace.MustSchema([]dataspace.Attribute{
		{Name: "C", Kind: dataspace.Categorical, DomainSize: 3},
		{Name: "N", Kind: dataspace.Numeric},
	})
	j := New(schema, 4)
	for c := int64(1); c <= 3; c++ {
		q, err := dataspace.NewQuery(schema, []dataspace.Pred{{Value: c}, {Lo: 0, Hi: 100}})
		if err != nil {
			f.Fatal(err)
		}
		j.Record(q, hiddendb.Result{
			Tuples:   dataspace.Bag{{c, 7}, {c, 42}},
			Overflow: c == 1,
		})
	}
	return j
}

// recordSpans returns the [start, end) byte spans of each framed record in
// a serialized v2 journal (header, entries, trailer), after the magic.
func recordSpans(f *testing.F, full []byte) [][2]int {
	f.Helper()
	var spans [][2]int
	off := len(magicV2)
	for off < len(full) {
		if off+4 > len(full) {
			f.Fatalf("truncated frame at %d", off)
		}
		n := int(binary.BigEndian.Uint32(full[off:]))
		end := off + 4 + n + 4
		if end > len(full) {
			f.Fatalf("frame at %d overruns the file", off)
		}
		spans = append(spans, [2]int{off, end})
		off = end
	}
	return spans
}

// FuzzReadFrom throws arbitrary bytes at the journal decoder and checks
// the recovery contract: never panic, never allocate unboundedly, and
// whenever a journal comes back (clean or alongside a *CorruptionError)
// it is internally consistent — the reported entry count matches, every
// key is canonical, and the journal re-serializes to a clean file.
func FuzzReadFrom(f *testing.F) {
	j := fuzzSeedJournal(f)
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	spans := recordSpans(f, valid)

	f.Add(valid)                 // clean file
	f.Add(valid[:len(valid)-5])  // torn inside the trailer
	f.Add(valid[:spans[2][0]])   // torn at a record boundary (no trailer)
	f.Add(valid[:spans[1][0]+7]) // torn mid-entry
	flipped := bytes.Clone(valid)
	flipped[spans[1][0]+9] ^= 0x20 // bit flip inside an entry payload
	f.Add(flipped)
	var dup []byte // first entry record duplicated: trailer count mismatch
	dup = append(dup, valid[:spans[2][0]]...)
	dup = append(dup, valid[spans[1][0]:spans[1][1]]...)
	dup = append(dup, valid[spans[2][0]:]...)
	f.Add(dup)
	f.Add([]byte(magicV2))                // magic only
	f.Add([]byte(`{"schema":{}}` + "\n")) // legacy-format header

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrom(bytes.NewReader(data))
		var ce *CorruptionError
		switch {
		case err == nil:
			if got == nil {
				t.Fatal("clean read returned a nil journal")
			}
		case errors.As(err, &ce):
			if got != nil && ce.Entries != got.Len() {
				t.Fatalf("error reports %d entries, journal has %d", ce.Entries, got.Len())
			}
			if got == nil && ce.Entries != 0 {
				t.Fatalf("nil journal but %d entries reported", ce.Entries)
			}
		default:
			if got != nil {
				t.Fatalf("non-corruption error %v returned a journal", err)
			}
			return
		}
		if got == nil {
			return
		}
		// Whatever was recovered must be well-formed: canonical keys and a
		// lossless re-serialization.
		for _, key := range got.order {
			q, err := dataspace.QueryFromKey(got.schema, key)
			if err != nil {
				t.Fatalf("recovered key %q does not parse: %v", key, err)
			}
			if canon := string(q.AppendKey(nil)); canon != key {
				t.Fatalf("recovered key %q is not canonical (re-keys to %q)", key, canon)
			}
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("recovered journal does not re-serialize: %v", err)
		}
		back, err := ReadFrom(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized journal does not read back clean: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("re-serialization lost entries: %d of %d", back.Len(), got.Len())
		}
	})
}
