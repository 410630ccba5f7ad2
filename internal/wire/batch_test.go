package wire

import (
	"encoding/json"
	"fmt"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

func TestBatchRequestRoundTrip(t *testing.T) {
	sch := testSchema(t)
	u := dataspace.UniverseQuery(sch)
	qs := []dataspace.Query{
		u,
		u.WithValue(0, 7),
		u.WithRange(1, 500, 10000),
		u.WithValue(0, 85).WithRange(1, 200, 200).WithRange(2, -5, 5),
	}
	raw, err := json.Marshal(EncodeBatchRequest(qs))
	if err != nil {
		t.Fatal(err)
	}
	var back BatchRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchRequest(sch, back)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(got), len(qs))
	}
	for i := range got {
		if string(got[i].AppendKey(nil)) != string(qs[i].AppendKey(nil)) {
			t.Fatalf("query %d round trip: %s != %s", i, got[i], qs[i])
		}
	}
}

func TestDecodeBatchRequestRejectsWholeBatch(t *testing.T) {
	sch := testSchema(t)
	good := EncodeQuery(dataspace.UniverseQuery(sch))
	bad := QueryMsg{Preds: []Pred{{Wild: true}}} // wrong arity
	if _, err := DecodeBatchRequest(sch, BatchRequest{Queries: []QueryMsg{good, bad}}); err == nil {
		t.Error("malformed query in batch accepted")
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	sch := testSchema(t)
	rs := []hiddendb.Result{
		{Tuples: dataspace.Bag{{1, 300, 0}, {2, 400, -1}}, Overflow: true},
		{},
		{Tuples: dataspace.Bag{{85, 250000, 99}}},
	}
	raw, err := json.Marshal(EncodeBatchResponse(rs, true))
	if err != nil {
		t.Fatal(err)
	}
	var back BatchResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, quotaExceeded, err := DecodeBatchResponse(sch, back)
	if err != nil {
		t.Fatal(err)
	}
	if !quotaExceeded {
		t.Error("quotaExceeded flag lost")
	}
	if len(got) != len(rs) {
		t.Fatalf("decoded %d results, want %d", len(got), len(rs))
	}
	for i := range got {
		if got[i].Overflow != rs[i].Overflow || len(got[i].Tuples) != len(rs[i].Tuples) {
			t.Fatalf("result %d shape changed in round trip", i)
		}
		for j := range got[i].Tuples {
			if !got[i].Tuples[j].Equal(rs[i].Tuples[j]) {
				t.Fatalf("result %d tuple %d differs", i, j)
			}
		}
	}
	// An invalid tuple fails decoding.
	back.Results[0].Tuples[0] = []int64{1} // wrong arity
	if _, _, err := DecodeBatchResponse(sch, back); err == nil {
		t.Error("invalid tuple accepted")
	}
}

// The struct-based batch conversions below were the /batch codec before
// the hand-written one; they are the reference its tests compare against.

// EncodeBatchRequest converts a query batch to the wire form.
func EncodeBatchRequest(qs []dataspace.Query) BatchRequest {
	msg := BatchRequest{Queries: make([]QueryMsg, len(qs))}
	for i, q := range qs {
		msg.Queries[i] = EncodeQuery(q)
	}
	return msg
}

// DecodeBatchRequest converts the wire form to queries over the schema. A
// single malformed query fails the whole batch — no prefix is answered.
func DecodeBatchRequest(s *dataspace.Schema, msg BatchRequest) ([]dataspace.Query, error) {
	qs := make([]dataspace.Query, len(msg.Queries))
	for i, qm := range msg.Queries {
		q, err := DecodeQuery(s, qm)
		if err != nil {
			return nil, fmt.Errorf("wire: batch query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// EncodeBatchResponse converts the answered prefix of a batch to the wire
// form. quotaExceeded marks a batch cut short by the server's budget.
func EncodeBatchResponse(rs []hiddendb.Result, quotaExceeded bool) BatchResponse {
	msg := BatchResponse{Results: make([]ResultMsg, len(rs)), QuotaExceeded: quotaExceeded}
	for i, r := range rs {
		msg.Results[i] = EncodeResult(r)
	}
	return msg
}

// DecodeBatchResponse converts the wire form back to server responses,
// validating every tuple against the schema.
func DecodeBatchResponse(s *dataspace.Schema, msg BatchResponse) (results []hiddendb.Result, quotaExceeded bool, err error) {
	results = make([]hiddendb.Result, len(msg.Results))
	for i, rm := range msg.Results {
		r, err := DecodeResult(s, rm)
		if err != nil {
			return nil, false, fmt.Errorf("wire: batch result %d: %w", i, err)
		}
		results[i] = r
	}
	return results, msg.QuotaExceeded, nil
}
