// Hand-written codec for the query-carrying messages.
//
// The /query, /batch and /crawl bodies carry almost every byte the
// protocol moves, and encoding/json's reflection used to dominate their
// CPU profile. The functions below encode and decode those messages
// directly, with no intermediate message structs. The wire format does not
// change:
//
//   - AppendQuery and AppendBatchRequest write the bytes json.Marshal
//     writes for EncodeQuery's QueryMsg and the BatchRequest of those
//     queries; AppendResult, AppendBatchResponse and AppendCrawlTuple
//     write the bytes json.Encoder writes for the ResultMsg,
//     BatchResponse and CrawlEvent the server used to build, trailing
//     newline included.
//   - ParseQuery, ParseBatchRequest, ParseResult, ParseBatchResponse and
//     CrawlReader accept and reject exactly what json.Decoder.Decode into
//     those structs, followed by DecodeQuery or DecodeResult, accepted and
//     rejected, and produce the same values: any whitespace, any key
//     order, keys matched case-insensitively (bytes.EqualFold, as
//     encoding/json does), null, duplicate keys with encoding/json's merge
//     rules, integers only and within int64, and bytes after the first
//     value ignored. String values (error, token) and the engine object
//     are decoded by encoding/json itself, on that sub-value only.
//
// The message structs in wire.go remain the schema of record: they
// document the format, and the journal file format, the load generator
// and the stats endpoints still use them.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// AppendQuery appends the /query request body for q to dst.
func AppendQuery(dst []byte, q dataspace.Query) []byte {
	s := q.Schema()
	dst = append(dst, `{"preds":[`...)
	for i := 0; i < s.Dims(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		p := q.Pred(i)
		switch {
		case s.Attr(i).Kind != dataspace.Categorical:
			dst = append(dst, '{')
			if p.Lo != dataspace.NegInf {
				dst = append(dst, `"lo":`...)
				dst = strconv.AppendInt(dst, p.Lo, 10)
				if p.Hi != dataspace.PosInf {
					dst = append(dst, ',')
				}
			}
			if p.Hi != dataspace.PosInf {
				dst = append(dst, `"hi":`...)
				dst = strconv.AppendInt(dst, p.Hi, 10)
			}
			dst = append(dst, '}')
		case p.Wild:
			dst = append(dst, `{"wild":true}`...)
		default:
			dst = append(dst, `{"value":`...)
			dst = strconv.AppendInt(dst, p.Value, 10)
			dst = append(dst, '}')
		}
	}
	return append(dst, "]}"...)
}

// AppendBatchRequest appends the /batch request body for qs to dst.
func AppendBatchRequest(dst []byte, qs []dataspace.Query) []byte {
	dst = append(dst, `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendQuery(dst, q)
	}
	return append(dst, "]}"...)
}

// AppendResult appends the /query response line for r to dst.
func AppendResult(dst []byte, r hiddendb.Result) []byte {
	return append(appendResult(dst, r), '\n')
}

// AppendBatchResponse appends the /batch response line to dst: the
// answered prefix rs, the quota flag and, when errMsg is not empty, the
// mid-batch server failure.
func AppendBatchResponse(dst []byte, rs []hiddendb.Result, quotaExceeded bool, errMsg string) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, r)
	}
	dst = append(dst, ']')
	if quotaExceeded {
		dst = append(dst, `,"quotaExceeded":true`...)
	}
	if errMsg != "" {
		// encoding/json itself, for its HTML and UTF-8 escaping.
		b, _ := json.Marshal(errMsg)
		dst = append(dst, `,"error":`...)
		dst = append(dst, b...)
	}
	return append(dst, "}\n"...)
}

// AppendCrawlTuple appends one /crawl progress line to dst: tuple t,
// extracted when the session had paid for queries queries.
func AppendCrawlTuple(dst []byte, t dataspace.Tuple, queries int) []byte {
	dst = append(dst, '{')
	if len(t) > 0 {
		dst = append(dst, `"tuple":`...)
		dst = appendInts(dst, t)
		dst = append(dst, ',')
	}
	dst = append(dst, `"queries":`...)
	dst = strconv.AppendInt(dst, int64(queries), 10)
	return append(dst, "}\n"...)
}

func appendResult(dst []byte, r hiddendb.Result) []byte {
	dst = append(dst, `{"tuples":[`...)
	for i, t := range r.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInts(dst, t)
	}
	dst = append(dst, `],"overflow":`...)
	dst = strconv.AppendBool(dst, r.Overflow)
	return append(dst, '}')
}

func appendInts(dst []byte, vals []int64) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

// ParseQuery decodes a /query request body into a query over s.
func ParseQuery(s *dataspace.Schema, body []byte) (dataspace.Query, error) {
	p := getParser(body)
	defer p.release()
	var q queryState
	if err := p.top(func() error { return p.queryObj(&q) }); err != nil {
		return dataspace.Query{}, err
	}
	return p.query(s, &q)
}

// ParseBatchRequest decodes a /batch request body into queries over s and
// the body-level token. A single malformed query fails the whole batch.
func ParseBatchRequest(s *dataspace.Schema, body []byte) (qs []dataspace.Query, token string, err error) {
	p := getParser(body)
	defer p.release()
	var list span
	err = p.top(func() error {
		return p.object(func(d *decoder, key []byte) error {
			switch {
			case bytes.EqualFold(key, keyQueries):
				return p.queryList(&list)
			case bytes.EqualFold(key, keyToken):
				return d.unmarshal(&token)
			}
			return d.skip()
		})
	})
	if err != nil {
		return nil, "", err
	}
	qs = make([]dataspace.Query, list.n)
	for i := range qs {
		if qs[i], err = p.query(s, &p.queries[list.off+i]); err != nil {
			return nil, "", fmt.Errorf("wire: batch query %d: %w", i, err)
		}
	}
	return qs, token, nil
}

// ParseResult decodes a /query response body, validating every tuple
// against s. The tuples share one exactly sized backing array.
func ParseResult(s *dataspace.Schema, body []byte) (hiddendb.Result, error) {
	p := getParser(body)
	defer p.release()
	var r resultState
	if err := p.top(func() error { return p.resultObj(&r) }); err != nil {
		return hiddendb.Result{}, err
	}
	if err := p.validate(s, &r); err != nil {
		return hiddendb.Result{}, err
	}
	return p.page(&r, make([]dataspace.Tuple, r.tuples.n)), nil
}

// ParseBatchResponse decodes a /batch response body: the answered prefix,
// every tuple validated against s, the quota flag, and the server's
// mid-batch error message ("" when none). Each result's tuples share one
// exactly sized backing array.
func ParseBatchResponse(s *dataspace.Schema, body []byte) (results []hiddendb.Result, quotaExceeded bool, errMsg string, err error) {
	p := getParser(body)
	defer p.release()
	var list span
	err = p.top(func() error {
		return p.object(func(d *decoder, key []byte) error {
			switch {
			case bytes.EqualFold(key, keyResults):
				return p.resultList(&list)
			case bytes.EqualFold(key, keyQuotaExceeded):
				return d.boolInto(&quotaExceeded)
			case bytes.EqualFold(key, keyError):
				return d.unmarshal(&errMsg)
			}
			return d.skip()
		})
	})
	if err != nil {
		return nil, false, "", err
	}
	rs := p.results[list.off : list.off+list.n]
	total := 0
	for i := range rs {
		if err := p.validate(s, &rs[i]); err != nil {
			return nil, false, "", fmt.Errorf("wire: batch result %d: %w", i, err)
		}
		total += rs[i].tuples.n
	}
	headers := make([]dataspace.Tuple, total)
	results = make([]hiddendb.Result, len(rs))
	for i := range rs {
		n := rs[i].tuples.n
		results[i] = p.page(&rs[i], headers[:n:n])
		headers = headers[n:]
	}
	return results, quotaExceeded, errMsg, nil
}

// CrawlReader decodes the NDJSON /crawl response stream with
// json.Decoder's stream semantics: values separated by optional
// whitespace, not necessarily one per line, each read only as far as it
// needs. Progress tuples are cut from shared chunks of backing storage,
// each with its capacity capped at its length.
type CrawlReader struct {
	r          io.Reader
	buf        []byte
	start, end int   // buf[start:end] is read but not yet decoded
	rerr       error // the reader's sticky error
	p          parser
	chunk      []int64
}

// NewCrawlReader returns a reader of the event stream r.
func NewCrawlReader(r io.Reader) *CrawlReader {
	return &CrawlReader{r: r, buf: make([]byte, 4096)}
}

// crawlChunk is the number of tuple values a CrawlReader allocates at once.
const crawlChunk = 4096

// Next decodes the next event into *ev, replacing its contents. At the
// end of the stream it returns io.EOF, or io.ErrUnexpectedEOF when the
// stream ends inside a value; a reader error other than io.EOF is
// returned as is once the bytes before it are decoded.
func (cr *CrawlReader) Next(ev *CrawlEvent) error {
	for {
		*ev = CrawlEvent{}
		p := &cr.p
		p.decoder = decoder{data: cr.buf[cr.start:cr.end]}
		p.vals = p.vals[:0]
		var tuple span
		err := p.event(ev, &tuple)
		if err == nil {
			cr.start += p.off
			if tuple.set {
				ev.Tuple = cr.carve(p.vals[tuple.off : tuple.off+tuple.n])
			}
			return nil
		}
		if err != errShort {
			return err
		}
		switch {
		case cr.rerr == nil:
			cr.fill()
		case cr.rerr != io.EOF:
			return cr.rerr
		case len(bytes.TrimLeft(p.data, " \t\r\n")) == 0:
			return io.EOF
		default:
			return io.ErrUnexpectedEOF
		}
	}
}

// fill reads once from the underlying reader, first moving the undecoded
// bytes to the front of the buffer and growing it when they fill it.
func (cr *CrawlReader) fill() {
	n := copy(cr.buf, cr.buf[cr.start:cr.end])
	cr.start, cr.end = 0, n
	if n == len(cr.buf) {
		buf := make([]byte, 2*len(cr.buf))
		copy(buf, cr.buf[:n])
		cr.buf = buf
	}
	m, err := cr.r.Read(cr.buf[n:])
	cr.end += m
	cr.rerr = err
}

// carve copies vals into the current chunk and returns the copy with its
// capacity capped, so appending to one tuple can never overwrite the next.
func (cr *CrawlReader) carve(vals []int64) []int64 {
	if len(vals) == 0 {
		return []int64{}
	}
	if cap(cr.chunk)-len(cr.chunk) < len(vals) {
		cr.chunk = make([]int64, 0, max(crawlChunk, len(vals)))
	}
	lo := len(cr.chunk)
	cr.chunk = append(cr.chunk, vals...)
	hi := len(cr.chunk)
	return cr.chunk[lo:hi:hi]
}

// Bodies are read whole and encoded whole, into buffers recycled here.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer bounds the buffers the pool keeps.
const maxPooledBuffer = 1 << 20

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *[]byte { return buffers.Get().(*[]byte) }

// PutBuffer returns a buffer to the pool. The caller must not use it
// afterwards.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	buffers.Put(b)
}

// ReadAll appends everything r yields to dst, as io.ReadAll does, and
// returns the first error other than io.EOF.
func ReadAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// JSONError reports a body the codec rejected before any schema check:
// not JSON, or JSON of the wrong shape for the message.
type JSONError struct {
	// Offset is the byte offset in the body where the problem was found.
	Offset int
	Reason string
}

func (e *JSONError) Error() string {
	return fmt.Sprintf("wire: %s at offset %d", e.Reason, e.Offset)
}

// errShort is the decoder's signal that the input ended inside a value.
var errShort = errors.New("wire: unexpected end of JSON input")

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Object keys, matched with bytes.EqualFold.
var (
	keyPreds         = []byte("preds")
	keyWild          = []byte("wild")
	keyValue         = []byte("value")
	keyLo            = []byte("lo")
	keyHi            = []byte("hi")
	keyQueries       = []byte("queries")
	keyToken         = []byte("token")
	keyTuples        = []byte("tuples")
	keyOverflow      = []byte("overflow")
	keyResults       = []byte("results")
	keyQuotaExceeded = []byte("quotaExceeded")
	keyError         = []byte("error")
	keyTuple         = []byte("tuple")
	keyDone          = []byte("done")
	keyResolved      = []byte("resolved")
	keyOverflowed    = []byte("overflowed")
	keySkipped       = []byte("skipped")
	keyReplays       = []byte("replays")
	keyCacheHits     = []byte("cacheHits")
	keySharedHits    = []byte("sharedHits")
	keySharedWaits   = []byte("sharedWaits")
	keyEngine        = []byte("engine")
)

// decoder is a single-pass JSON reader over a byte slice. Every method
// validates what it consumes exactly as encoding/json's scanner does, and
// returns errShort when the input ends first.
type decoder struct {
	data  []byte
	off   int
	depth int
}

func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte.
func (d *decoder) peek() (byte, error) {
	d.ws()
	if d.off >= len(d.data) {
		return 0, errShort
	}
	return d.data[d.off], nil
}

func (d *decoder) invalid(c byte) error {
	return &JSONError{Offset: d.off, Reason: fmt.Sprintf("invalid character %q", c)}
}

// mismatch rejects a value of the wrong JSON kind for the Go type named
// by into, as encoding/json's UnmarshalTypeError does.
func (d *decoder) mismatch(c byte, into string) error {
	kind := ""
	switch {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return d.invalid(c)
	}
	return &JSONError{Offset: d.off, Reason: "cannot decode " + kind + " into " + into}
}

// open consumes the '{' or '[' at the offset and reports whether the
// container is empty, in which case its closer is consumed too.
func (d *decoder) open(closer byte) (empty bool, err error) {
	d.off++
	d.depth++
	if d.depth > maxDepth {
		return false, &JSONError{Offset: d.off - 1, Reason: "exceeded max depth"}
	}
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c == closer {
		d.off++
		d.depth--
		return true, nil
	}
	return false, nil
}

// more consumes the separator after a container element: true for ',',
// false for the closer.
func (d *decoder) more(closer byte) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case ',':
		d.off++
		return true, nil
	case closer:
		d.off++
		d.depth--
		return false, nil
	}
	return false, d.invalid(c)
}

// str consumes the string at the offset and reports whether it contains
// escapes.
func (d *decoder) str() (escaped bool, err error) {
	data := d.data
	for i := d.off + 1; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return escaped, nil
		case c == '\\':
			escaped = true
			if i+1 >= len(data) {
				return escaped, errShort
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(data) {
						return escaped, errShort
					}
					if !isHex(data[j]) {
						d.off = j
						return escaped, d.invalid(data[j])
					}
				}
				i += 6
			default:
				d.off = i + 1
				return escaped, d.invalid(data[i+1])
			}
		case c < 0x20:
			d.off = i
			return escaped, d.invalid(c)
		default:
			i++
		}
	}
	return escaped, errShort
}

// number consumes the number at the offset and returns its text.
func (d *decoder) number() ([]byte, error) {
	data, i := d.data, d.off
	if data[i] == '-' {
		i++
	}
	if i >= len(data) {
		return nil, errShort
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		d.off = i
		return nil, d.invalid(c)
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) {
			return nil, errShort
		}
		if !isDigit(data[i]) {
			d.off = i
			return nil, d.invalid(data[i])
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) {
			return nil, errShort
		}
		if !isDigit(data[i]) {
			d.off = i
			return nil, d.invalid(data[i])
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	tok := data[d.off:i]
	d.off = i
	return tok, nil
}

// lit consumes the literal word (true, false or null).
func (d *decoder) lit(word string) error {
	for i := 0; i < len(word); i++ {
		j := d.off + i
		if j >= len(d.data) {
			return errShort
		}
		if d.data[j] != word[i] {
			d.off = j
			return d.invalid(d.data[j])
		}
	}
	d.off += len(word)
	return nil
}

// skip consumes one value of any kind.
func (d *decoder) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '{':
		return d.object(func(d *decoder, _ []byte) error { return d.skip() })
	case c == '[':
		empty, err := d.open(']')
		if err != nil || empty {
			return err
		}
		for {
			if err := d.skip(); err != nil {
				return err
			}
			more, err := d.more(']')
			if err != nil || !more {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case c == 't':
		return d.lit("true")
	case c == 'f':
		return d.lit("false")
	case c == 'n':
		return d.lit("null")
	}
	return d.invalid(c)
}

// object consumes the object at the offset, calling field for each
// member with the offset at its value; field must consume the value.
func (d *decoder) object(field func(d *decoder, key []byte) error) error {
	empty, err := d.open('}')
	if err != nil || empty {
		return err
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := field(d, key); err != nil {
			return err
		}
		more, err := d.more('}')
		if err != nil || !more {
			return err
		}
	}
}

// key consumes an object key and its colon and returns the key, unescaped
// by encoding/json when it has escapes.
func (d *decoder) key() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, d.invalid(c)
	}
	start := d.off
	escaped, err := d.str()
	if err != nil {
		return nil, err
	}
	key := d.data[start+1 : d.off-1]
	if escaped {
		var s string
		if err := json.Unmarshal(d.data[start:d.off], &s); err != nil {
			return nil, &JSONError{Offset: start, Reason: err.Error()}
		}
		key = []byte(s)
	}
	if c, err = d.peek(); err != nil {
		return nil, err
	}
	if c != ':' {
		return nil, d.invalid(c)
	}
	d.off++
	return key, nil
}

// unmarshal hands the next value to encoding/json, decoding it into v.
func (d *decoder) unmarshal(v any) error {
	if _, err := d.peek(); err != nil {
		return err
	}
	start := d.off
	if err := d.skip(); err != nil {
		return err
	}
	if err := json.Unmarshal(d.data[start:d.off], v); err != nil {
		return &JSONError{Offset: start, Reason: err.Error()}
	}
	return nil
}

// intInto decodes a number into *v. Null leaves *v as it is, encoding/
// json's rule for a non-pointer field.
func (d *decoder) intInto(v *int64) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == 'n':
		return d.lit("null")
	case c == '-' || isDigit(c):
		// Fast path: at most 18 digits, no leading zero, and a byte
		// after them that ends the number.
		i := d.off
		if c == '-' {
			i++
		}
		j := i
		var u uint64
		for ; j < len(d.data) && j-i < 18 && isDigit(d.data[j]); j++ {
			u = u*10 + uint64(d.data[j]-'0')
		}
		if j > i && j < len(d.data) && (d.data[i] != '0' || j == i+1) {
			switch b := d.data[j]; {
			case b == '.' || b == 'e' || b == 'E' || isDigit(b):
			default:
				d.off = j
				*v = int64(u)
				if c == '-' {
					*v = -*v
				}
				return nil
			}
		}
		start := d.off
		tok, err := d.number()
		if err != nil {
			return err
		}
		n, ok := parseInt64(tok)
		if !ok {
			return &JSONError{Offset: start, Reason: "cannot decode number " + string(tok) + " into int64"}
		}
		*v = n
		return nil
	}
	return d.mismatch(c, "int64")
}

// intField is intInto for an int field.
func (d *decoder) intField(v *int) error {
	n := int64(*v)
	start := d.off
	if err := d.intInto(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return &JSONError{Offset: start, Reason: "cannot decode number " + strconv.FormatInt(n, 10) + " into int"}
	}
	*v = int(n)
	return nil
}

// optInt is a *int64 field: set is false for nil.
type optInt struct {
	set bool
	v   int64
}

// optInto decodes a number or null into a pointer field.
func (d *decoder) optInto(o *optInt) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		*o = optInt{}
		return d.lit("null")
	}
	if err := d.intInto(&o.v); err != nil {
		return err
	}
	o.set = true
	return nil
}

// boolInto decodes true or false into *v; null leaves it as it is.
func (d *decoder) boolInto(v *bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 't':
		*v = true
		return d.lit("true")
	case 'f':
		*v = false
		return d.lit("false")
	case 'n':
		return d.lit("null")
	}
	return d.mismatch(c, "bool")
}

// parseInt64 converts a JSON number to int64 as strconv.ParseInt does:
// fractions, exponents and overflow fail.
func parseInt64(tok []byte) (int64, bool) {
	neg := tok[0] == '-'
	digits := tok
	if neg {
		digits = tok[1:]
	}
	if len(digits) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range digits {
		if !isDigit(c) {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return int64(-u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// span is a decoded slice field, stored in one of the parser's arenas.
// encoding/json decodes a repeated slice field into the slice it already
// holds: elements overwrite the old ones in place (a struct element keeps
// the fields its new object leaves out), and the elements a shorter
// occurrence hid reappear when a longer one follows. So a span keeps
// every element decoded since the field was last reset (back of them,
// from arena index off), of which n are visible; set is false for a nil
// slice. Null and [] reset the field.
type span struct {
	off, back, n int
	set          bool
}

// grow appends a zero element to sp's elements, first moving them to the
// end of arena when anything was appended after them.
func grow[T any](arena []T, sp *span) []T {
	if sp.off+sp.back != len(arena) {
		off := len(arena)
		arena = append(arena, arena[sp.off:sp.off+sp.back]...)
		sp.off = off
	}
	var zero T
	sp.back++
	return append(arena, zero)
}

// list decodes an array or null into the slice field sp, calling elem
// for element i once it exists; elem must consume the element.
func (d *decoder) list(sp *span, into string, grow func(*span), elem func(i int) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*sp = span{}
		return d.lit("null")
	case '[':
	default:
		return d.mismatch(c, into)
	}
	empty, err := d.open(']')
	if err != nil {
		return err
	}
	if empty {
		*sp = span{set: true}
		return nil
	}
	sp.set = true
	for i := 0; ; i++ {
		if i == sp.back {
			grow(sp)
		}
		if err := elem(sp.off + i); err != nil {
			return err
		}
		more, err := d.more(']')
		if err != nil {
			return err
		}
		if !more {
			sp.n = i + 1
			return nil
		}
	}
}

// structValue decodes an object or null into a struct of the Go type
// named by into: obj decodes the object, and null leaves the struct as it
// is.
func (d *decoder) structValue(into string, obj func() error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return obj()
	case 'n':
		return d.lit("null")
	}
	return d.mismatch(c, into)
}

// predState is a wire.Pred being decoded.
type predState struct {
	wild          bool
	value, lo, hi optInt
}

// queryState is a wire.QueryMsg being decoded; preds spans parser.preds.
type queryState struct{ preds span }

// resultState is a wire.ResultMsg being decoded; tuples spans
// parser.tuples, whose elements span parser.vals.
type resultState struct {
	tuples   span
	overflow bool
}

// parser holds the decoder and the arenas of one message; parsers are
// pooled, so a decode allocates only what it returns.
type parser struct {
	decoder
	vals    []int64
	tuples  []span
	results []resultState
	preds   []predState
	queries []queryState
	scratch []dataspace.Pred
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

func getParser(data []byte) *parser {
	p := parsers.Get().(*parser)
	p.decoder = decoder{data: data}
	return p
}

// maxPooledArena bounds the arena elements a pooled parser keeps, so one
// huge message does not pin its memory for good.
const maxPooledArena = 1 << 16

func (p *parser) release() {
	p.decoder = decoder{}
	p.vals = trim(p.vals)
	p.tuples = trim(p.tuples)
	p.results = trim(p.results)
	p.preds = trim(p.preds)
	p.queries = trim(p.queries)
	p.scratch = trim(p.scratch)
	parsers.Put(p)
}

func trim[T any](s []T) []T {
	if cap(s) > maxPooledArena {
		return nil
	}
	return s[:0]
}

// top decodes a whole message body: obj decodes the top-level object
// (null leaves the message zero, anything else is rejected), and bytes
// after it are ignored.
func (p *parser) top(obj func() error) error {
	err := p.structValue("message", obj)
	if err == errShort {
		return &JSONError{Offset: len(p.data), Reason: "unexpected end of JSON input"}
	}
	return err
}

func (p *parser) queryObj(q *queryState) error {
	return p.object(func(d *decoder, key []byte) error {
		if bytes.EqualFold(key, keyPreds) {
			return p.predList(&q.preds)
		}
		return d.skip()
	})
}

func (p *parser) predList(sp *span) error {
	return p.list(sp, "[]wire.Pred",
		func(sp *span) { p.preds = grow(p.preds, sp) },
		func(i int) error {
			return p.structValue("wire.Pred", func() error { return p.predObj(&p.preds[i]) })
		})
}

func (p *parser) predObj(ps *predState) error {
	return p.object(func(d *decoder, key []byte) error {
		switch {
		case bytes.EqualFold(key, keyWild):
			return d.boolInto(&ps.wild)
		case bytes.EqualFold(key, keyValue):
			return d.optInto(&ps.value)
		case bytes.EqualFold(key, keyLo):
			return d.optInto(&ps.lo)
		case bytes.EqualFold(key, keyHi):
			return d.optInto(&ps.hi)
		}
		return d.skip()
	})
}

func (p *parser) queryList(sp *span) error {
	return p.list(sp, "[]wire.QueryMsg",
		func(sp *span) { p.queries = grow(p.queries, sp) },
		func(i int) error {
			return p.structValue("wire.QueryMsg", func() error { return p.queryObj(&p.queries[i]) })
		})
}

func (p *parser) resultList(sp *span) error {
	return p.list(sp, "[]wire.ResultMsg",
		func(sp *span) { p.results = grow(p.results, sp) },
		func(i int) error {
			return p.structValue("wire.ResultMsg", func() error { return p.resultObj(&p.results[i]) })
		})
}

func (p *parser) resultObj(r *resultState) error {
	return p.object(func(d *decoder, key []byte) error {
		switch {
		case bytes.EqualFold(key, keyTuples):
			return p.tupleList(&r.tuples)
		case bytes.EqualFold(key, keyOverflow):
			return d.boolInto(&r.overflow)
		}
		return d.skip()
	})
}

func (p *parser) tupleList(sp *span) error {
	return p.list(sp, "[][]int64",
		func(sp *span) { p.tuples = grow(p.tuples, sp) },
		func(i int) error { return p.ints(&p.tuples[i]) })
}

// ints decodes an array of integers or null into the []int64 field sp,
// whose elements live in p.vals. It is list specialized for the hottest
// field of the protocol.
func (p *parser) ints(sp *span) error {
	c, err := p.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*sp = span{}
		return p.lit("null")
	case '[':
	default:
		return p.mismatch(c, "[]int64")
	}
	empty, err := p.open(']')
	if err != nil {
		return err
	}
	if empty {
		*sp = span{set: true}
		return nil
	}
	sp.set = true
	vals := p.vals // a local, so growing it needs no write barrier
	defer func() { p.vals = vals }()
	for i := 0; ; i++ {
		if i == sp.back {
			vals = grow(vals, sp)
		}
		if err := p.intInto(&vals[sp.off+i]); err != nil {
			return err
		}
		more, err := p.more(']')
		if err != nil {
			return err
		}
		if !more {
			sp.n = i + 1
			return nil
		}
	}
}

// event decodes one /crawl stream value into ev; the tuple's values are
// left in p.vals under tuple. Only an object or null is a valid event.
func (p *parser) event(ev *CrawlEvent, tuple *span) error {
	return p.structValue("wire.CrawlEvent", func() error { return p.eventObj(ev, tuple) })
}

func (p *parser) eventObj(ev *CrawlEvent, tuple *span) error {
	return p.object(func(d *decoder, key []byte) error {
		switch {
		case bytes.EqualFold(key, keyTuple):
			return p.ints(tuple)
		case bytes.EqualFold(key, keyQueries):
			return d.intField(&ev.Queries)
		case bytes.EqualFold(key, keyDone):
			return d.boolInto(&ev.Done)
		case bytes.EqualFold(key, keyTuples):
			return d.intField(&ev.Tuples)
		case bytes.EqualFold(key, keyResolved):
			return d.intField(&ev.Resolved)
		case bytes.EqualFold(key, keyOverflowed):
			return d.intField(&ev.Overflowed)
		case bytes.EqualFold(key, keySkipped):
			return d.intField(&ev.Skipped)
		case bytes.EqualFold(key, keyReplays):
			return d.intField(&ev.Replays)
		case bytes.EqualFold(key, keyCacheHits):
			return d.intField(&ev.CacheHits)
		case bytes.EqualFold(key, keySharedHits):
			return d.intField(&ev.SharedHits)
		case bytes.EqualFold(key, keySharedWaits):
			return d.intField(&ev.SharedWaits)
		case bytes.EqualFold(key, keyEngine):
			return d.unmarshal(&ev.Engine)
		case bytes.EqualFold(key, keyError):
			return d.unmarshal(&ev.Error)
		case bytes.EqualFold(key, keyQuotaExceeded):
			return d.boolInto(&ev.QuotaExceeded)
		}
		return d.skip()
	})
}

// query converts a decoded QueryMsg to a query over s, as DecodeQuery.
func (p *parser) query(s *dataspace.Schema, q *queryState) (dataspace.Query, error) {
	var err error
	p.scratch, err = decodePreds(s, p.preds[q.preds.off:q.preds.off+q.preds.n], p.scratch[:0])
	if err != nil {
		return dataspace.Query{}, err
	}
	return dataspace.NewQuery(s, p.scratch)
}

// decodePreds appends the predicates of a decoded QueryMsg to dst,
// checking them against the schema's attribute kinds.
func decodePreds(s *dataspace.Schema, preds []predState, dst []dataspace.Pred) ([]dataspace.Pred, error) {
	if len(preds) != s.Dims() {
		return dst, fmt.Errorf("wire: query has %d predicates, schema has %d attributes", len(preds), s.Dims())
	}
	for i, wp := range preds {
		if s.Attr(i).Kind == dataspace.Categorical {
			switch {
			case wp.wild && !wp.value.set:
				dst = append(dst, dataspace.Pred{Wild: true})
			case !wp.wild && wp.value.set:
				dst = append(dst, dataspace.Pred{Value: wp.value.v})
			default:
				return dst, fmt.Errorf("wire: categorical predicate %d must set exactly one of wild/value", i)
			}
			continue
		}
		pred := dataspace.Pred{Lo: dataspace.NegInf, Hi: dataspace.PosInf}
		if wp.lo.set {
			pred.Lo = wp.lo.v
		}
		if wp.hi.set {
			pred.Hi = wp.hi.v
		}
		dst = append(dst, pred)
	}
	return dst, nil
}

// validate checks every tuple of a decoded ResultMsg against s, as
// DecodeResult does.
func (p *parser) validate(s *dataspace.Schema, r *resultState) error {
	for i, t := range p.tuples[r.tuples.off : r.tuples.off+r.tuples.n] {
		var tu dataspace.Tuple
		if t.set {
			tu = p.vals[t.off : t.off+t.n]
		}
		if err := tu.Validate(s); err != nil {
			return fmt.Errorf("wire: tuple %d: %w", i, err)
		}
	}
	return nil
}

// page copies a validated result's tuples into one exactly sized backing
// array, each tuple's capacity capped at its length, with headers as the
// result's tuple slice.
func (p *parser) page(r *resultState, headers []dataspace.Tuple) hiddendb.Result {
	ts := p.tuples[r.tuples.off : r.tuples.off+r.tuples.n]
	total := 0
	for _, t := range ts {
		total += t.n
	}
	back := make([]int64, total)
	lo := 0
	for i, t := range ts {
		hi := lo + copy(back[lo:], p.vals[t.off:t.off+t.n])
		headers[i] = back[lo:hi:hi]
		lo = hi
	}
	return hiddendb.Result{Tuples: headers, Overflow: r.overflow}
}
