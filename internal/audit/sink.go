package audit

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"gdprstore/internal/aof"
)

// Sink consumes audit records. The pipeline's drainer calls Write once per
// claim (up to 64 records) with both the records and their trail-file
// encoding (codec.go: one claim frame, several only past maxFrame), so
// in-engine sinks keep the structs, the file sink appends the bytes in one
// write, and an export
// sink renders whatever its consumer was promised (Record.AppendJSON). Both
// slices belong to the drainer and are reused after Write returns.
// Implementations must be safe for concurrent use: Write comes from the one
// drainer, in sequence order, but Trail.Sync and queries run beside it.
type Sink interface {
	// Write appends one batch of records, all or none.
	Write(recs []Record, enc []byte) error
	// Sync forces everything written so far to stable storage (or the
	// remote end). Strict mode calls it before acknowledging an append.
	Sync() error
	// Close releases the sink after a final flush.
	Close() error
}

// FileSink persists records as (optionally encrypted) claim frames
// (codec.go), appended to what the file already holds through an aof.File:
// its first write or fsync error sticks (DESIGN.md §11). A file that does
// not start with a claim frame is refused at open (checkHead).
type FileSink struct {
	*aof.File
	key []byte
}

// NewFileSink opens or appends to the trail file at path, which applies
// policy itself (aof.SyncEverySec: it fsyncs once a second). A non-nil key
// encrypts the file at rest (32 bytes, AES-CTR keyed by byte offset). A
// trail an earlier release began is refused before anything is written.
func NewFileSink(path string, key []byte, policy aof.SyncPolicy) (*FileSink, error) {
	r, err := aof.OpenReader(path, key)
	if err != nil {
		return nil, fmt.Errorf("audit: open: %w", err)
	}
	if r.Size() > 0 {
		first := make([]byte, 1)
		if _, err = r.ReadAt(first, 0); err == nil {
			err = checkHead(path, first[0])
		}
	}
	r.Close()
	if err != nil {
		return nil, err
	}
	f, err := aof.OpenFile(path, key, policy)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	return &FileSink{File: f, key: key}, nil
}

// checkHead refuses a trail whose first byte does not open a claim frame:
// one an earlier release began in JSONL lines or per-record frames.
// Retired entries only ever preceded claim frames, so the first decides.
// A file encrypted under another key fails here too, before this process
// appends frames it could not read back.
func checkHead(path string, first byte) error {
	if first == claimMarker {
		return nil
	}
	return fmt.Errorf("audit: trail %s starts with %#x, not a claim frame (an earlier release's trail, or another at-rest key): %w; move the file aside (the previous release reads it)", path, first, ErrRetiredFormat)
}

// Write appends one encoded batch.
func (s *FileSink) Write(_ []Record, enc []byte) error { return s.Append(enc) }

// recoverTailWindow is how far back RecoverLastSeq reads first. A claim
// frame is a few kilobytes and frames are in sequence order, so the highest
// number sits well inside the final megabyte.
const recoverTailWindow = 1 << 20

// RecoverLastSeq returns the highest sequence number persisted in the
// trail file at path, reading only the final recoverTailWindow bytes
// instead of scanning the whole file (O(1) startup on large trails). A
// missing file returns 0. The window starts wherever it starts and may end
// in a torn frame (crash mid-append); lastSeq finds the whole frames in
// between. A window with no whole frame in it, the inside of a claim frame
// of megabytes, is widened until it holds one or the whole file.
func RecoverLastSeq(path string, key []byte) (uint64, error) {
	r, err := aof.OpenReader(path, key)
	if err != nil {
		return 0, fmt.Errorf("audit: recover: %w", err)
	}
	defer r.Close()
	size := r.Size()
	for window := int64(recoverTailWindow); ; window *= 4 {
		off := max(size-window, 0)
		buf := make([]byte, size-off)
		if _, err := r.ReadAt(buf, off); err != nil && !errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("audit: recover: %w", err)
		}
		// A window of 4·maxFrame holds a whole frame before any torn one;
		// finding none there means damage (or a wrong key), not a big claim.
		if last := lastSeq(buf); last > 0 || off == 0 || window >= 4*maxFrame {
			return last, nil
		}
	}
}

// MemSink keeps a bounded ring of the most recent records in memory — the
// in-engine sink query.go serves from when the trail has no file. A trail
// with a file composes none: its queries read the file.
type MemSink struct {
	mu  sync.Mutex
	buf []Record
	cap int
}

// NewMemSink returns a ring bounded to capacity records.
func NewMemSink(capacity int) *MemSink {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &MemSink{cap: capacity}
}

// Write appends the records, evicting the oldest half in one copy when the
// ring is full (amortised O(1)).
func (s *MemSink) Write(recs []Record, _ []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if len(s.buf) >= s.cap {
			half := len(s.buf) / 2
			copy(s.buf, s.buf[half:])
			s.buf = s.buf[:len(s.buf)-half]
		}
		s.buf = append(s.buf, r)
	}
	return nil
}

// Sync is a no-op: memory is as durable as it gets.
func (s *MemSink) Sync() error { return nil }

// Close is a no-op.
func (s *MemSink) Close() error { return nil }

// Records returns a copy of the retained tail.
func (s *MemSink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.buf...)
}

// MultiSink fans every call out to all children. Errors do not short-
// circuit: every child sees every record, and the joined error is
// reported so one failing export sink cannot silence the durable one.
type MultiSink struct {
	sinks []Sink
}

// NewMultiSink composes sinks; nils are skipped.
func NewMultiSink(sinks ...Sink) *MultiSink {
	m := &MultiSink{}
	for _, s := range sinks {
		if s != nil {
			m.sinks = append(m.sinks, s)
		}
	}
	return m
}

// Write fans out to every child.
func (m *MultiSink) Write(recs []Record, enc []byte) error {
	var errs []error
	for _, s := range m.sinks {
		if err := s.Write(recs, enc); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Sync fans out to every child.
func (m *MultiSink) Sync() error {
	var errs []error
	for _, s := range m.sinks {
		if err := s.Sync(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close fans out to every child.
func (m *MultiSink) Close() error {
	var errs []error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
