// Crash-safe journal framing. A journal is persisted mid-crawl and
// reloaded after interruptions that include real crashes: a process killed
// mid-write leaves a torn file, a bad disk flips bits. The v2 format makes
// every record independently verifiable — length-prefixed payloads with a
// per-record CRC32 and a length-prefixed trailer carrying the entry count —
// so a reader can always recover the longest valid prefix of a damaged
// file instead of discarding the whole session's paid queries. The journal
// is an optimization, never the source of truth: a lost tail merely
// re-pays the queries it held, so prefix recovery is always safe.
//
// Layout:
//
//	magic "hidbjnl2\n"
//	record*          [4-byte BE length][payload][4-byte BE CRC32-IEEE(payload)]
//
// The first payload byte tags the record: 'H' (header: the schema message),
// 'E' (one entry), 'T' (trailer: the entry count). A clean file is
// header, entries, trailer, EOF; anything else is damage, cut at the first
// invalid byte.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"hidb/internal/dataspace"
	"hidb/internal/wire"
)

// magicV2 marks a checksummed v2 journal. Files not starting with it are
// read as the legacy JSON-lines format.
const magicV2 = "hidbjnl2\n"

// Record type tags (first payload byte).
const (
	recHeader  = 'H'
	recEntry   = 'E'
	recTrailer = 'T'
)

// maxRecordLen bounds one record's payload, so a corrupted length prefix
// cannot make the reader allocate gigabytes. A record holds one query and
// at most k returned tuples; 64 MiB is far beyond any real entry.
const maxRecordLen = 64 << 20

// trailerMsg is the payload of the terminal record: how many entries a
// complete file holds. A reader that never sees it knows the file is torn
// even when the tear fell exactly on a record boundary.
type trailerMsg struct {
	Entries int `json:"entries"`
}

// CorruptionError reports a torn or corrupted journal. The *Journal
// returned alongside it holds the longest valid prefix of the file — every
// entry up to the damage — and is safe to use; only the damaged tail is
// lost (and must simply be re-paid).
type CorruptionError struct {
	// Entries is how many valid entries were recovered before the damage.
	Entries int
	// Offset is the byte offset at which the damage starts.
	Offset int64
	// Reason describes what was wrong at Offset.
	Reason error
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("journal: corrupted at byte %d after %d valid entries: %v", e.Offset, e.Entries, e.Reason)
}

func (e *CorruptionError) Unwrap() error { return e.Reason }

// writeRecord frames one payload: length prefix, payload, CRC.
func writeRecord(w io.Writer, payload []byte) (int64, error) {
	var frame [4]byte
	binary.BigEndian.PutUint32(frame[:], uint32(len(payload)))
	if _, err := w.Write(frame[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 4, err
	}
	binary.BigEndian.PutUint32(frame[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(frame[:]); err != nil {
		return 4 + int64(len(payload)), err
	}
	return 8 + int64(len(payload)), nil
}

// framedReader reads v2 records, tracking the byte offset so corruption is
// reported where it starts.
type framedReader struct {
	r   io.Reader
	off int64
}

// next returns the next record's payload (including its type tag byte).
// io.EOF is returned only for a clean EOF exactly at a record boundary;
// any other failure — short read, oversized length, CRC mismatch — comes
// back as a descriptive error with the reader positioned at the damage.
func (fr *framedReader) next() ([]byte, error) {
	var frame [4]byte
	n, err := io.ReadFull(fr.r, frame[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("truncated record length: %w", err)
	}
	fr.off += 4
	length := binary.BigEndian.Uint32(frame[:])
	if length == 0 || length > maxRecordLen {
		return nil, fmt.Errorf("implausible record length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, fmt.Errorf("truncated record payload: %w", err)
	}
	fr.off += int64(length)
	if _, err := io.ReadFull(fr.r, frame[:]); err != nil {
		return nil, fmt.Errorf("truncated record checksum: %w", err)
	}
	fr.off += 4
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(frame[:]); got != want {
		return nil, fmt.Errorf("checksum mismatch (corrupted record)")
	}
	return payload, nil
}

// writeToV2 serializes the journal in the checksummed v2 format. Caller
// holds j.mu (read).
func (j *Journal) writeToV2(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, magicV2); err != nil {
		return cw.n, err
	}
	hdr, err := json.Marshal(wire.EncodeSchema(j.schema, j.k))
	if err != nil {
		return cw.n, err
	}
	if _, err := writeRecord(cw, append([]byte{recHeader}, hdr...)); err != nil {
		return cw.n, err
	}
	for _, key := range j.order {
		res := j.entries[key]
		q, err := dataspace.QueryFromKey(j.schema, key)
		if err != nil {
			return cw.n, err
		}
		payload, err := json.Marshal(entryMsg{
			Query:  wire.EncodeQuery(q),
			Result: wire.EncodeResult(res),
		})
		if err != nil {
			return cw.n, err
		}
		if _, err := writeRecord(cw, append([]byte{recEntry}, payload...)); err != nil {
			return cw.n, err
		}
	}
	trailer, err := json.Marshal(trailerMsg{Entries: len(j.order)})
	if err != nil {
		return cw.n, err
	}
	if _, err := writeRecord(cw, append([]byte{recTrailer}, trailer...)); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// readFromV2 decodes a v2 journal whose magic has already been consumed.
// Damage after a valid header yields the recovered prefix plus a
// *CorruptionError; a damaged header yields (nil, *CorruptionError) — there
// is no schema to build a journal against.
func readFromV2(r io.Reader, consumed int64) (*Journal, error) {
	fr := &framedReader{r: r, off: consumed}
	corrupt := func(entries int, at int64, reason error) *CorruptionError {
		return &CorruptionError{Entries: entries, Offset: at, Reason: reason}
	}

	at := fr.off
	payload, err := fr.next()
	if err != nil {
		return nil, corrupt(0, at, fmt.Errorf("header: %w", err))
	}
	if len(payload) < 1 || payload[0] != recHeader {
		return nil, corrupt(0, at, errors.New("header: wrong record type"))
	}
	var hdr wire.SchemaMsg
	if err := json.Unmarshal(payload[1:], &hdr); err != nil {
		return nil, corrupt(0, at, fmt.Errorf("header: %w", err))
	}
	schema, k, err := wire.DecodeSchema(hdr)
	if err != nil {
		return nil, corrupt(0, at, fmt.Errorf("header schema: %w", err))
	}

	j := New(schema, k)
	for {
		at = fr.off
		payload, err := fr.next()
		if err == io.EOF {
			// Torn exactly at a record boundary: no trailer seen.
			return j, corrupt(j.Len(), at, errors.New("missing trailer (torn file)"))
		}
		if err != nil {
			return j, corrupt(j.Len(), at, err)
		}
		switch payload[0] {
		case recEntry:
			var e entryMsg
			if err := json.Unmarshal(payload[1:], &e); err != nil {
				return j, corrupt(j.Len(), at, fmt.Errorf("entry: %w", err))
			}
			q, err := wire.DecodeQuery(schema, e.Query)
			if err != nil {
				return j, corrupt(j.Len(), at, fmt.Errorf("entry query: %w", err))
			}
			res, err := wire.DecodeResult(schema, e.Result)
			if err != nil {
				return j, corrupt(j.Len(), at, fmt.Errorf("entry result: %w", err))
			}
			j.Record(q, res)
		case recTrailer:
			var tr trailerMsg
			if err := json.Unmarshal(payload[1:], &tr); err != nil {
				return j, corrupt(j.Len(), at, fmt.Errorf("trailer: %w", err))
			}
			if tr.Entries != j.Len() {
				// Duplicate records collapse in Record, so a count mismatch
				// from deduplication alone is expected only downward; any
				// mismatch still means the file is not what was written.
				return j, corrupt(j.Len(), at, fmt.Errorf("trailer promises %d entries, read %d", tr.Entries, j.Len()))
			}
			// Bytes after the trailer are ignored, as a sequential reader
			// never reads past the terminal record.
			return j, nil
		default:
			return j, corrupt(j.Len(), at, fmt.Errorf("unknown record type %q", payload[0]))
		}
	}
}

// SaveFile persists the journal to path crash-safely: the bytes are
// written to a temporary file in the same directory, flushed to stable
// storage, and renamed over path — a crash at any instant leaves either
// the old complete file or the new complete file, never a mix. The parent
// directory is created if missing.
func SaveFile(path string, j *Journal) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: save %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: save %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("journal: save %s: %w", path, err)
	}
	if _, err := j.WriteTo(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: save %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: save %s: %w", path, err)
	}
	syncDir(dir) // best effort: make the rename itself durable
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Not all platforms support it; failures are ignored — the rename is
// already atomic with respect to crashes of this process.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// LoadFile reads the journal at path. A missing file returns an error
// wrapping fs.ErrNotExist. A torn or corrupted file is recovered to its
// longest valid prefix: the damaged original is quarantined as
// path+".corrupt" (preserving the evidence), the clean prefix is written
// back to path, and both the recovered journal and a *CorruptionError
// describing the damage are returned — callers should log the error and
// continue with the journal. When not even the header survived, the
// journal is nil and the caller starts fresh; only the unflushed tail's
// queries are ever re-paid.
func LoadFile(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: load %s: %w", path, err)
	}
	j, rerr := ReadFrom(f)
	f.Close()
	var ce *CorruptionError
	if errors.As(rerr, &ce) {
		quarantine(path, j)
		return j, rerr
	}
	if rerr != nil {
		return nil, fmt.Errorf("journal: load %s: %w", path, rerr)
	}
	return j, nil
}

// quarantine moves a damaged journal aside and re-persists the recovered
// prefix (when any survived). Best effort on all counts: the journal is an
// optimization, and the recovered prefix is already in memory.
func quarantine(path string, recovered *Journal) {
	os.Rename(path, path+".corrupt")
	if recovered != nil && recovered.Len() > 0 {
		SaveFile(path, recovered)
	}
}
