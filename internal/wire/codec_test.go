package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/simrand"
)

// The references below are the struct-based decoding the codec replaced:
// json.Decoder.Decode into the message struct, then the struct conversion.

func refParseQuery(s *dataspace.Schema, body []byte) (dataspace.Query, error) {
	var msg QueryMsg
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&msg); err != nil {
		return dataspace.Query{}, err
	}
	return DecodeQuery(s, msg)
}

func refParseBatchRequest(s *dataspace.Schema, body []byte) ([]dataspace.Query, string, error) {
	var msg BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&msg); err != nil {
		return nil, "", err
	}
	qs, err := DecodeBatchRequest(s, msg)
	if err != nil {
		return nil, "", err
	}
	return qs, msg.Token, nil
}

func refParseResult(s *dataspace.Schema, body []byte) (hiddendb.Result, error) {
	var msg ResultMsg
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&msg); err != nil {
		return hiddendb.Result{}, err
	}
	return DecodeResult(s, msg)
}

func refParseBatchResponse(s *dataspace.Schema, body []byte) ([]hiddendb.Result, bool, string, error) {
	var msg BatchResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&msg); err != nil {
		return nil, false, "", err
	}
	rs, quota, err := DecodeBatchResponse(s, msg)
	if err != nil {
		return nil, false, "", err
	}
	return rs, quota, msg.Error, nil
}

// encodeLine is what json.Encoder wrote for v.
func encodeLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randQuery draws a query over testSchema mixing wildcards, values, open
// and closed ranges, extreme bounds included.
func randQuery(rng *simrand.RNG, sch *dataspace.Schema) dataspace.Query {
	q := dataspace.UniverseQuery(sch)
	if rng.Bool(0.5) {
		q = q.WithValue(0, rng.IntRange(1, 85))
	}
	for a := 1; a < 3; a++ {
		lo, hi := dataspace.NegInf, dataspace.PosInf
		switch rng.Intn(4) {
		case 1:
			lo = rng.IntRange(-1000, 1000)
		case 2:
			hi = rng.IntRange(-1000, 1000)
		case 3:
			lo = rng.IntRange(-1000, 0)
			hi = lo + rng.IntRange(0, 1<<40)
		}
		q = q.WithRange(a, lo, hi)
	}
	return q
}

// randResult draws a result over testSchema, empty ones included.
func randResult(rng *simrand.RNG) hiddendb.Result {
	r := hiddendb.Result{Overflow: rng.Bool(0.3)}
	n := rng.Intn(6)
	if n == 0 {
		return r // a nil tuple slice
	}
	r.Tuples = make(dataspace.Bag, n)
	for i := range r.Tuples {
		r.Tuples[i] = dataspace.Tuple{rng.IntRange(1, 85), rng.IntRange(dataspace.NegInf, dataspace.PosInf), rng.IntRange(-5, 5)}
	}
	return r
}

// TestAppendMatchesEncodingJSON is the codec's byte-identity property:
// every Append* output equals what encoding/json wrote for the message
// structs, over random batches, empty results, the quota flag and error
// strings that need escaping.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	sch := testSchema(t)
	rng := simrand.New(7)
	errMsgs := []string{"", "store exploded", `<script>&"quoted"\back</script>`, "naïve ünïcødé — 日本語", "bad\xffutf8 line\x01"}
	for iter := 0; iter < 300; iter++ {
		qs := make([]dataspace.Query, rng.Intn(5))
		for i := range qs {
			qs[i] = randQuery(rng, sch)
			if got, want := AppendQuery(nil, qs[i]), marshal(t, EncodeQuery(qs[i])); !bytes.Equal(got, want) {
				t.Fatalf("AppendQuery:\n got %s\nwant %s", got, want)
			}
		}
		if got, want := AppendBatchRequest(nil, qs), marshal(t, EncodeBatchRequest(qs)); !bytes.Equal(got, want) {
			t.Fatalf("AppendBatchRequest:\n got %s\nwant %s", got, want)
		}

		rs := make([]hiddendb.Result, rng.Intn(5))
		for i := range rs {
			rs[i] = randResult(rng)
			if got, want := AppendResult(nil, rs[i]), encodeLine(t, EncodeResult(rs[i])); !bytes.Equal(got, want) {
				t.Fatalf("AppendResult:\n got %s\nwant %s", got, want)
			}
		}
		quota := rng.Bool(0.5)
		errMsg := errMsgs[rng.Intn(len(errMsgs))]
		msg := EncodeBatchResponse(rs, quota)
		msg.Error = errMsg
		if got, want := AppendBatchResponse([]byte("prefix"), rs, quota, errMsg), append([]byte("prefix"), encodeLine(t, msg)...); !bytes.Equal(got, want) {
			t.Fatalf("AppendBatchResponse:\n got %s\nwant %s", got, want)
		}

		var tu dataspace.Tuple
		if r := randResult(rng); len(r.Tuples) > 0 {
			tu = r.Tuples[0]
		} else if rng.Bool(0.5) {
			tu = dataspace.Tuple{}
		}
		queries := rng.Intn(1 << 20)
		if got, want := AppendCrawlTuple(nil, tu, queries), encodeLine(t, CrawlEvent{Tuple: tu, Queries: queries}); !bytes.Equal(got, want) {
			t.Fatalf("AppendCrawlTuple:\n got %s\nwant %s", got, want)
		}
	}
}

// TestDecodedTuplesDoNotAlias: tuples cut from one backing array carry
// capped capacities, so appending to one leaves its neighbour intact.
func TestDecodedTuplesDoNotAlias(t *testing.T) {
	sch := testSchema(t)
	rs, _, _, err := ParseBatchResponse(sch, []byte(`{"results":[{"tuples":[[1,2,3],[4,5,6]],"overflow":false},{"tuples":[[7,8,9]],"overflow":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	first := rs[0].Tuples[0]
	if len(first) != cap(first) {
		t.Fatalf("tuple has len %d, cap %d", len(first), cap(first))
	}
	_ = append(first, 99)
	if want := (dataspace.Tuple{4, 5, 6}); !rs[0].Tuples[1].Equal(want) {
		t.Fatalf("appending to a tuple overwrote its neighbour: %v", rs[0].Tuples[1])
	}
	_ = append(rs[0].Tuples[1], 99)
	if want := (dataspace.Tuple{7, 8, 9}); !rs[1].Tuples[0].Equal(want) {
		t.Fatalf("appending to a page's last tuple overwrote the next page: %v", rs[1].Tuples[0])
	}

	cr := NewCrawlReader(strings.NewReader(`{"tuple":[1,2,3],"queries":1}` + "\n" + `{"tuple":[4,5,6],"queries":2}`))
	var a, b CrawlEvent
	if err := cr.Next(&a); err != nil {
		t.Fatal(err)
	}
	if err := cr.Next(&b); err != nil {
		t.Fatal(err)
	}
	_ = append(a.Tuple, 99)
	if want := []int64{4, 5, 6}; !reflect.DeepEqual(b.Tuple, want) {
		t.Fatalf("appending to a streamed tuple overwrote the next one: %v", b.Tuple)
	}
}

// TestParseErrorsAreJSONErrors: JSON-level rejections are *JSONError,
// schema-level ones are not, so servers can tell a broken body from a
// bad query.
func TestParseErrorsAreJSONErrors(t *testing.T) {
	sch := testSchema(t)
	var je *JSONError
	for _, body := range []string{``, `{"queries":[`, `{"queries":5}`, `{"queries":[{"preds":[{"value":1.5}]}]}`, `[]`} {
		if _, _, err := ParseBatchRequest(sch, []byte(body)); !errors.As(err, &je) {
			t.Errorf("ParseBatchRequest(%q) = %v, want a *JSONError", body, err)
		}
	}
	for _, body := range []string{`{"queries":[{"preds":[{"wild":true}]}]}`, `{"queries":[{"preds":[{"value":0},{},{}]}]}`} {
		if _, _, err := ParseBatchRequest(sch, []byte(body)); err == nil || errors.As(err, &je) {
			t.Errorf("ParseBatchRequest(%q) = %v, want a schema error", body, err)
		}
	}
}

// codecSeeds are bodies every differential fuzz target starts from: real
// encoder output plus the corner cases of encoding/json's decoding rules.
func codecSeeds(t testing.TB) []string {
	sch := testSchema(t)
	rng := simrand.New(3)
	qs := []dataspace.Query{randQuery(rng, sch), randQuery(rng, sch), dataspace.UniverseQuery(sch)}
	rs := []hiddendb.Result{randResult(rng), {}, {Tuples: dataspace.Bag{{85, 250000, 99}}, Overflow: true}}
	pretty, _ := json.MarshalIndent(EncodeBatchResponse(rs, true), "", "  ")
	return []string{
		string(AppendBatchRequest(nil, qs)),
		string(AppendQuery(nil, qs[0])),
		string(AppendBatchResponse(nil, rs, true, "quota <&> ✓")),
		string(AppendResult(nil, rs[2])),
		string(pretty),
		// Reordered, unknown, case-folded and escaped keys.
		`{"token":"t","queries":[{"preds":[{"value":3},{"hi":9,"lo":1},{}]}]}`,
		`{"x":{"a":[1,{"b":null},"s",true,-1.5e3]},"QUERIES":[{"PREDS":[{"WILD":true},{"Lo":1},{"hI":2}]}]}`,
		`{"queries":[{"preds":[{"wild":true},{},{}]}],"token":"é"}`,
		`{"reſults":[{"tuples":[[1,2,3]],"overflow":true}]}`,
		`{"results":[{"tuples":[[1,2,3]]}],"quotaexceeded":true,"ERROR":"x"}`,
		// Nulls everywhere.
		`null`,
		`{"queries":null}`,
		`{"queries":[null,{"preds":null}]}`,
		`{"queries":[{"preds":[null,{"lo":null,"hi":null},{}]}]}`,
		`{"preds":[{"wild":null,"value":5},{},{}]}`,
		`{"results":[null,{"tuples":null,"overflow":null}],"quotaExceeded":null,"error":null}`,
		`{"results":[{"tuples":[null,[1,null,3]]}]}`,
		`{"tuples":[[1,2,3]],"overflow":true}`,
		// Numbers: exponents, leading zeros, negative zero, overflow.
		`{"preds":[{"value":1e2},{},{}]}`,
		`{"preds":[{"value":01},{},{}]}`,
		`{"preds":[{"value":-0},{"lo":-0},{}]}`,
		`{"preds":[{"wild":true},{"lo":-9223372036854775808},{"hi":9223372036854775807}]}`,
		`{"preds":[{"wild":true},{"lo":-9223372036854775809},{}]}`,
		`{"tuples":[[1,9223372036854775808,0]]}`,
		`{"tuples":[[1.0,2,3]]}`,
		// Duplicate keys: scalars, and slices merged element-wise.
		`{"queries":[{"preds":[{"wild":true},{},{}]}],"queries":[{"preds":[{"value":2}]}]}`,
		`{"preds":[{"value":1},{},{}],"preds":[{"wild":true,"value":null}],"preds":[{},{},{}]}`,
		`{"results":[{"tuples":[[1,2,3],[4,5,6]],"overflow":true},{}],"results":[{}],"results":[{},{"tuples":[[7,8,9]]}]}`,
		`{"tuples":[[1,2,3],[4,5,6]],"tuples":[[9]],"tuples":[[null,null,null],[null,5]]}`,
		`{"tuples":[[1,2,3]],"tuples":[],"tuples":[[null,null,null]]}`,
		`{"token":"a","token":"b","queries":[]}`,
		// Trailing bytes, truncation, whitespace, garbage.
		`{"queries":[]} trailing garbage`,
		"\t\r\n {\"results\" : [ ] } {",
		`nullgarbage`,
		`{"results":[{"tuples":[[1,2`,
		`{"queries":[{"preds":[{"wild":true},{},{}]},]}`,
		`{"a":"\ud800\x01"}`,
		`[1,2,3]`,
		`"string"`,
		``,
		"\xef\xbb\xbf{}",
	}
}

func sameQueries(a, b []dataspace.Query) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzParseBatchRequest: for any body, ParseBatchRequest and ParseQuery
// accept exactly what the encoding/json reference accepts, and decode the
// same queries and token.
func FuzzParseBatchRequest(f *testing.F) {
	for _, s := range codecSeeds(f) {
		f.Add([]byte(s))
	}
	sch := testSchema(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		qs, token, err := ParseBatchRequest(sch, body)
		rqs, rtoken, rerr := refParseBatchRequest(sch, body)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("batch request %q: codec err %v, reference err %v", body, err, rerr)
		}
		if err == nil && (!sameQueries(qs, rqs) || token != rtoken) {
			t.Fatalf("batch request %q: codec %v %q, reference %v %q", body, qs, token, rqs, rtoken)
		}

		q, err := ParseQuery(sch, body)
		rq, rerr := refParseQuery(sch, body)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("query %q: codec err %v, reference err %v", body, err, rerr)
		}
		if err == nil && !reflect.DeepEqual(q, rq) {
			t.Fatalf("query %q: codec %v, reference %v", body, q, rq)
		}
	})
}

// FuzzParseBatchResponse: for any body, ParseBatchResponse and
// ParseResult accept exactly what the encoding/json reference accepts,
// and decode equal results, flag and error message.
func FuzzParseBatchResponse(f *testing.F) {
	for _, s := range codecSeeds(f) {
		f.Add([]byte(s))
	}
	sch := testSchema(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rs, quota, errMsg, err := ParseBatchResponse(sch, body)
		rrs, rquota, rerrMsg, rerr := refParseBatchResponse(sch, body)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("batch response %q: codec err %v, reference err %v", body, err, rerr)
		}
		if err == nil && (!reflect.DeepEqual(rs, rrs) || quota != rquota || errMsg != rerrMsg) {
			t.Fatalf("batch response %q: codec %v %v %q, reference %v %v %q", body, rs, quota, errMsg, rrs, rquota, rerrMsg)
		}

		r, err := ParseResult(sch, body)
		rr, rerr := refParseResult(sch, body)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("result %q: codec err %v, reference err %v", body, err, rerr)
		}
		if err == nil && !reflect.DeepEqual(r, rr) {
			t.Fatalf("result %q: codec %v, reference %v", body, r, rr)
		}
	})
}

// oneByteReader hands out its input a byte per Read, the worst split a
// network can make of a stream.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestCrawlReaderMatchesDecoder: the stream reader yields the events
// json.Decoder yields, ending with the same kind of error, however the
// reads split the stream.
func TestCrawlReaderMatchesDecoder(t *testing.T) {
	streams := []string{
		`{"tuple":[1,2],"queries":1}` + "\n" + `{"done":true,"queries":1,"engine":{"kind":"mem"}}` + "\n",
		`{"tuple":[1]}{"tuple":[2]} {"tuple":[3]}` + "\n\n" + `null {"done":true}`,
		"{\n  \"tuple\": [\n    1\n  ],\n  \"queries\": 7\n}\n",
		`{"tuple":[1,2],"tuple":[null],"queries":1,"queries":null}`,
		`{"tuple":[],"QUERIES":3,"Done":true,"error":"xé","quotaExceeded":true,"engine":null}`,
		`{"tuple":[1,2]`,
		`{"queries":1} 5`,
		`{"queries":1.5}`,
		`{"queries":1}   `,
		``,
	}
	for _, s := range streams {
		var want []CrawlEvent
		dec := json.NewDecoder(strings.NewReader(s))
		var werr error
		for {
			var ev CrawlEvent
			if werr = dec.Decode(&ev); werr != nil {
				break
			}
			want = append(want, ev)
		}
		for _, split := range []bool{false, true} {
			var r io.Reader = strings.NewReader(s)
			if split {
				r = oneByteReader{r}
			}
			cr := NewCrawlReader(r)
			var got []CrawlEvent
			var err error
			for {
				var ev CrawlEvent
				if err = cr.Next(&ev); err != nil {
					break
				}
				got = append(got, ev)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stream %q (split %v): events %+v, want %+v", s, split, got, want)
			}
			if (err == io.EOF) != (werr == io.EOF) || (err == io.ErrUnexpectedEOF) != (werr == io.ErrUnexpectedEOF) {
				t.Errorf("stream %q (split %v): ends with %v, json.Decoder with %v", s, split, err, werr)
			}
		}
	}
}

// benchBatch is one paid /batch page set of serve-mixed's shape: twelve
// queries against the adult stand-in at k = 64, most of them overflowing.
func benchBatch(b *testing.B) (*dataspace.Schema, []dataspace.Query, []hiddendb.Result) {
	b.Helper()
	ds, err := datagen.ByName("adult", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	u := dataspace.UniverseQuery(ds.Schema)
	qs := make([]dataspace.Query, 12)
	for i := range qs {
		qs[i] = u.WithValue(i%8, int64(i/8+1)).WithRange(8+i%6, 0, 1<<20)
	}
	rs, err := local.AnswerBatch(context.Background(), qs)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Schema, qs, rs
}

// BenchmarkBatchCodec measures one /batch exchange's four codec steps,
// hand-written and through encoding/json (the -json variants), on
// serve-mixed's batch shape.
func BenchmarkBatchCodec(b *testing.B) {
	sch, qs, rs := benchBatch(b)
	req := AppendBatchRequest(nil, qs)
	resp := AppendBatchResponse(nil, rs, false, "")
	b.Run("encode-request", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendBatchRequest(buf[:0], qs)
		}
	})
	b.Run("decode-request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ParseBatchRequest(sch, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-request-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := refParseBatchRequest(sch, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-response", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendBatchResponse(buf[:0], rs, false, "")
		}
	})
	b.Run("encode-response-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			json.NewEncoder(&buf).Encode(EncodeBatchResponse(rs, false))
		}
	})
	b.Run("decode-response", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ParseBatchResponse(sch, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-response-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := refParseBatchResponse(sch, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
