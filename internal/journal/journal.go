// Package journal makes crawls resumable. Real hidden databases cap the
// queries a client may issue per day (the very constraint that motivates the
// paper's cost metric), so a complete crawl may have to span several query
// budgets. A Journal records every (query, response) pair that reached the
// server; because the crawling algorithms are deterministic and the server's
// responses are stable, re-running the algorithm with the journal replayed
// in front of the server fast-forwards for free through everything already
// paid for and continues issuing only new queries.
//
// The journal serializes in a crash-safe checksummed framing (see
// framed.go): per-record CRC32 with a length-prefixed trailer, so a crawl
// interrupted by hiddendb.ErrQuotaExceeded — or by a crash mid-write — can
// persist its state to disk and resume days later; a torn or corrupted
// file recovers its longest valid prefix instead of losing the session.
// SaveFile/LoadFile are the canonical write-temp-fsync-rename persistence
// helpers. Legacy JSON-lines journals are still readable.
package journal

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
	"hidb/internal/wire"
)

// Journal is a replayable log of server responses, keyed by canonical
// query. Safe for concurrent use, so it composes with the parallel crawler.
//
// Entries are keyed by the query's binary Query.AppendKey encoding. Lookup
// builds the key in a stack buffer and probes the map with string(kb),
// which the compiler does not allocate for, so a replay allocates nothing;
// only Record copies a new key to the heap.
type Journal struct {
	schema *dataspace.Schema
	k      int

	mu      sync.RWMutex
	entries map[string]hiddendb.Result
	order   []string // the entries' keys in insertion order, for deterministic serialization
}

// New creates an empty journal for a server with the given schema and
// return limit.
func New(schema *dataspace.Schema, k int) *Journal {
	return &Journal{
		schema:  schema,
		k:       k,
		entries: make(map[string]hiddendb.Result),
	}
}

// Schema returns the schema the journal was created for.
func (j *Journal) Schema() *dataspace.Schema { return j.schema }

// K returns the return limit the journal was created for.
func (j *Journal) K() int { return j.k }

// Len returns the number of recorded queries.
func (j *Journal) Len() int {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return len(j.order)
}

// Lookup returns the recorded response for q, if any.
func (j *Journal) Lookup(q dataspace.Query) (hiddendb.Result, bool) {
	var buf [dataspace.KeyBufLen]byte
	kb := q.AppendKey(buf[:0])
	j.mu.RLock()
	res, ok := j.entries[string(kb)]
	j.mu.RUnlock()
	return res, ok
}

// Record stores the response for q. Recording the same query twice is a
// no-op (responses are stable by the problem setup).
func (j *Journal) Record(q dataspace.Query, res hiddendb.Result) {
	var buf [dataspace.KeyBufLen]byte
	kb := q.AppendKey(buf[:0])
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[string(kb)]; ok {
		return
	}
	key := string(kb)
	j.entries[key] = res
	j.order = append(j.order, key)
}

// entryMsg is the wire form of one journal line.
type entryMsg struct {
	Query  wire.QueryMsg  `json:"query"`
	Result wire.ResultMsg `json:"result"`
}

// headerMsg is the wire form of the journal's first line.
type headerMsg struct {
	Schema wire.SchemaMsg `json:"schema"`
	// Entries is the number of entry lines that follow; a reader can
	// detect truncated journals.
	Entries int `json:"entries"`
}

// WriteTo serializes the journal in the checksummed v2 format (see
// framed.go): length-prefixed records with per-record CRC32 and a trailer
// carrying the entry count, so a torn or bit-flipped file is recoverable
// to its longest valid prefix. It implements io.WriterTo.
func (j *Journal) WriteTo(w io.Writer) (int64, error) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.writeToV2(w)
}

// ReadFrom deserializes a journal written by WriteTo — the checksummed v2
// format, or the legacy JSON-lines format of older files. A damaged file
// does not fail wholesale: the longest valid prefix is recovered and
// returned alongside a *CorruptionError describing the tear (errors.As to
// detect it; the journal is safe to use, only the damaged tail's queries
// must be re-paid). The journal is nil only when not even the header
// survived.
func ReadFrom(r io.Reader) (*Journal, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(magicV2))
	if err == nil && string(magic) == magicV2 {
		br.Discard(len(magicV2))
		return readFromV2(br, int64(len(magicV2)))
	}
	return readFromLegacy(br)
}

// readFromLegacy decodes the pre-checksum JSON-lines format: a header with
// the schema and promised entry count, then one entry per line. Truncation
// mid-entries recovers the valid prefix with a *CorruptionError, matching
// the v2 reader's contract.
func readFromLegacy(r io.Reader) (*Journal, error) {
	dec := json.NewDecoder(r)
	var hdr headerMsg
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("journal: reading header: %w", err)
	}
	schema, k, err := wire.DecodeSchema(hdr.Schema)
	if err != nil {
		return nil, fmt.Errorf("journal: header schema: %w", err)
	}
	j := New(schema, k)
	for i := 0; i < hdr.Entries; i++ {
		var e entryMsg
		if err := dec.Decode(&e); err != nil {
			return j, &CorruptionError{Entries: j.Len(), Offset: dec.InputOffset(), Reason: fmt.Errorf("entry %d of %d: %w (truncated journal)", i, hdr.Entries, err)}
		}
		q, err := wire.DecodeQuery(schema, e.Query)
		if err != nil {
			return j, &CorruptionError{Entries: j.Len(), Offset: dec.InputOffset(), Reason: fmt.Errorf("entry %d query: %w", i, err)}
		}
		res, err := wire.DecodeResult(schema, e.Result)
		if err != nil {
			return j, &CorruptionError{Entries: j.Len(), Offset: dec.InputOffset(), Reason: fmt.Errorf("entry %d result: %w", i, err)}
		}
		j.Record(q, res)
	}
	return j, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Server wraps a hiddendb.Server with a journal: recorded queries are
// answered from the journal at zero cost, new ones are forwarded and
// recorded. It implements hiddendb.Server.
type Server struct {
	inner   hiddendb.Server
	journal *Journal

	mu       sync.Mutex
	replays  int
	inflight map[string]chan struct{} // keyed like Journal.entries
}

// Wrap builds the journaling view. The journal's schema and k must match
// the server's.
func Wrap(inner hiddendb.Server, j *Journal) (*Server, error) {
	if j.K() != inner.K() {
		return nil, fmt.Errorf("journal: recorded k=%d but server has k=%d", j.K(), inner.K())
	}
	if j.Schema().String() != inner.Schema().String() {
		return nil, fmt.Errorf("journal: schema mismatch: %s vs %s", j.Schema(), inner.Schema())
	}
	return &Server{inner: inner, journal: j, inflight: make(map[string]chan struct{})}, nil
}

// Answer implements hiddendb.Server. Replays are free and ignore ctx —
// they touch no remote resource — while forwarded queries honour it.
//
// Concurrent misses on the same query are single-flighted: only one caller
// pays the inner server, the rest wait and replay the recorded answer.
// Without this, a client that reconnects while its previous (severed)
// crawl is still winding down server-side could race it to the same
// journal miss and be charged twice for one logical query.
func (s *Server) Answer(ctx context.Context, q dataspace.Query) (hiddendb.Result, error) {
	var buf [dataspace.KeyBufLen]byte
	kb := q.AppendKey(buf[:0])
	for {
		if res, ok := s.journal.Lookup(q); ok {
			s.mu.Lock()
			s.replays++
			s.mu.Unlock()
			return res, nil
		}
		s.mu.Lock()
		if done, ok := s.inflight[string(kb)]; ok {
			// Another caller is paying for this query right now; wait for
			// its verdict and re-check the journal.
			s.mu.Unlock()
			select {
			case <-done:
				continue
			case <-ctx.Done():
				return hiddendb.Result{}, ctx.Err()
			}
		}
		done := make(chan struct{})
		s.inflight[string(kb)] = done
		s.mu.Unlock()

		res, err := s.inner.Answer(ctx, q)
		if err == nil {
			s.journal.Record(q, res)
		}
		s.mu.Lock()
		delete(s.inflight, string(kb))
		s.mu.Unlock()
		close(done)
		return res, err
	}
}

// AnswerBatch implements hiddendb.Server with the sequential contract:
// journaled queries are replayed for free, the remaining ones are forwarded
// to the inner server as a single (deduplicated) batch and recorded. A
// query repeated within the batch is a replay, exactly as if the batch had
// been issued query by query.
func (s *Server) AnswerBatch(ctx context.Context, qs []dataspace.Query) ([]hiddendb.Result, error) {
	forward := func(miss []dataspace.Query) ([]hiddendb.Result, error) {
		return s.inner.AnswerBatch(ctx, miss)
	}
	out, replays, err := hiddendb.MemoBatch(qs, s.journal.Lookup, forward, s.journal.Record)
	if replays > 0 {
		s.mu.Lock()
		s.replays += replays
		s.mu.Unlock()
	}
	return out, err
}

// K implements hiddendb.Server.
func (s *Server) K() int { return s.inner.K() }

// Schema implements hiddendb.Server.
func (s *Server) Schema() *dataspace.Schema { return s.inner.Schema() }

// Replays returns how many queries were answered from the journal.
func (s *Server) Replays() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replays
}
