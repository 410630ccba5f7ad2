package wire

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

func testSchema(t testing.TB) *dataspace.Schema {
	t.Helper()
	return dataspace.MustSchema([]dataspace.Attribute{
		{Name: "Make", Kind: dataspace.Categorical, DomainSize: 85},
		{Name: "Price", Kind: dataspace.Numeric, Min: 200, Max: 250000},
		{Name: "Year", Kind: dataspace.Numeric},
	})
}

func TestSchemaRoundTrip(t *testing.T) {
	sch := testSchema(t)
	msg := EncodeSchema(sch, 1000)
	// Through JSON, as the HTTP path does.
	raw, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var back SchemaMsg
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, k, err := DecodeSchema(back)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1000 {
		t.Fatalf("k = %d, want 1000", k)
	}
	if got.String() != sch.String() {
		t.Fatalf("schema round trip: %s != %s", got, sch)
	}
	if got.Attr(1).Min != 200 || got.Attr(1).Max != 250000 {
		t.Fatal("bounds lost in round trip")
	}
	if got.Attr(2).Min != 0 || got.Attr(2).Max != 0 {
		t.Fatal("unbounded attribute gained bounds")
	}
}

func TestDecodeSchemaErrors(t *testing.T) {
	if _, _, err := DecodeSchema(SchemaMsg{
		K: 10, Attributes: []Attribute{{Name: "A", Kind: "fuzzy"}},
	}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, _, err := DecodeSchema(SchemaMsg{
		K: 0, Attributes: []Attribute{{Name: "A", Kind: "numeric"}},
	}); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, _, err := DecodeSchema(SchemaMsg{
		K: 5, Attributes: []Attribute{{Name: "C", Kind: "categorical"}},
	}); err == nil {
		t.Error("categorical without domain accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	sch := testSchema(t)
	queries := []dataspace.Query{
		dataspace.UniverseQuery(sch),
		dataspace.UniverseQuery(sch).WithValue(0, 3),
		dataspace.UniverseQuery(sch).WithRange(1, 1000, 2000),
		dataspace.UniverseQuery(sch).WithValue(0, 85).WithRange(1, 200, 200).WithRange(2, -5, 5),
	}
	for _, q := range queries {
		raw, err := json.Marshal(EncodeQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		var msg QueryMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeQuery(sch, msg)
		if err != nil {
			t.Fatalf("decode %s: %v", q, err)
		}
		if string(got.AppendKey(nil)) != string(q.AppendKey(nil)) {
			t.Fatalf("query round trip: %s != %s", got, q)
		}
	}
}

func TestDecodeQueryErrors(t *testing.T) {
	sch := testSchema(t)
	if _, err := DecodeQuery(sch, QueryMsg{Preds: []Pred{{Wild: true}}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	three := func(p Pred) QueryMsg {
		return QueryMsg{Preds: []Pred{p, {}, {}}}
	}
	if _, err := DecodeQuery(sch, three(Pred{})); err == nil {
		t.Error("categorical predicate with neither wild nor value accepted")
	}
	v := int64(3)
	if _, err := DecodeQuery(sch, three(Pred{Wild: true, Value: &v})); err == nil {
		t.Error("categorical predicate with both wild and value accepted")
	}
	lo, hi := int64(10), int64(5)
	bad := QueryMsg{Preds: []Pred{{Wild: true}, {Lo: &lo, Hi: &hi}, {}}}
	if _, err := DecodeQuery(sch, bad); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	sch := testSchema(t)
	res := hiddendb.Result{
		Overflow: true,
		Tuples: dataspace.Bag{
			{1, 200, -100},
			{85, 250000, 100},
		},
	}
	raw, err := json.Marshal(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	var msg ResultMsg
	if err := json.Unmarshal(raw, &msg); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(sch, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Overflow != res.Overflow || !got.Tuples.EqualMultiset(res.Tuples) {
		t.Fatal("result round trip changed content")
	}
}

func TestDecodeResultValidates(t *testing.T) {
	sch := testSchema(t)
	bad := ResultMsg{Tuples: [][]int64{{99999, 0, 0}}} // Make out of domain
	if _, err := DecodeResult(sch, bad); err == nil {
		t.Error("out-of-domain tuple accepted")
	}
	badArity := ResultMsg{Tuples: [][]int64{{1, 2}}}
	if _, err := DecodeResult(sch, badArity); err == nil {
		t.Error("wrong-arity tuple accepted")
	}
}

func TestEncodeResultClonesTuples(t *testing.T) {
	sch := testSchema(t)
	orig := dataspace.Tuple{1, 300, 0}
	msg := EncodeResult(hiddendb.Result{Tuples: dataspace.Bag{orig}})
	msg.Tuples[0][0] = 42
	if orig[0] != 1 {
		t.Error("EncodeResult shares tuple storage")
	}
	_ = sch
}

// Property: arbitrary in-domain queries survive the wire round trip
// bit-for-bit (by canonical key).
func TestQueryRoundTripProperty(t *testing.T) {
	sch := testSchema(t)
	f := func(makeVal uint8, wild bool, lo, hi int32) bool {
		q := dataspace.UniverseQuery(sch)
		if !wild {
			q = q.WithValue(0, int64(makeVal%85)+1)
		}
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		q = q.WithRange(2, l, h)
		raw, err := json.Marshal(EncodeQuery(q))
		if err != nil {
			return false
		}
		var msg QueryMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			return false
		}
		got, err := DecodeQuery(sch, msg)
		return err == nil && string(got.AppendKey(nil)) == string(q.AppendKey(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
