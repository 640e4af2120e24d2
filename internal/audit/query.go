package audit

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"gdprstore/internal/aof"
)

// Filter selects audit records. Zero-valued fields match everything.
type Filter struct {
	// From/To bound the record timestamp: From inclusive, To exclusive.
	// Zero times are unbounded.
	From, To time.Time
	// Actor matches the issuing principal exactly.
	Actor string
	// Owner matches the affected data subject exactly.
	Owner string
	// Key matches the affected key exactly.
	Key string
	// Op matches the operation name exactly.
	Op string
	// Outcome matches the operation outcome exactly.
	Outcome Outcome
}

// Match reports whether r passes the filter.
func (f Filter) Match(r Record) bool {
	if !f.From.IsZero() && r.Time.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !r.Time.Before(f.To) {
		return false
	}
	if f.Actor != "" && r.Actor != f.Actor {
		return false
	}
	if f.Owner != "" && r.Owner != f.Owner {
		return false
	}
	if f.Key != "" && r.Key != f.Key {
		return false
	}
	if f.Op != "" && r.Op != f.Op {
		return false
	}
	if f.Outcome != "" && r.Outcome != f.Outcome {
		return false
	}
	return true
}

// Query returns matching records in sequence order, the order the file and
// the ring hold them in (DESIGN.md §17). It serves from the
// durable file when the trail is file-backed (so results are complete),
// and from the in-memory ring, the only copy, when it is not. The pipeline
// is drained first so a query observes every record appended before the
// call. On a masked trail the records come back as written, pseudonyms and
// all, and the filter's Owner and Key are names, which Query masks once, so
// an equality query by name still finds its records, or pseudonyms (what
// BREACH reports for an erased subject), which carry the mask prefix and
// match as given.
func (t *Trail) Query(f Filter) ([]Record, error) {
	for _, v := range []*string{&f.Owner, &f.Key} {
		if !strings.HasPrefix(*v, maskPrefix) {
			*v = t.Pseudonym(*v)
		}
	}
	out := []Record{}
	err := t.Scan(func(r Record) error {
		if f.Match(r) {
			out = append(out, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scan streams every record in the trail through fn in log order, as
// written: a masked trail's records carry pseudonyms.
func (t *Trail) Scan(fn func(Record) error) error {
	if err := t.barrier(); err != nil {
		return err
	}
	if t.file == nil {
		if t.mem == nil {
			return nil
		}
		for _, r := range t.mem.Records() {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	// Flush buffered bytes (no fsync needed — the scan only requires
	// read visibility, not durability).
	if err := t.file.Flush(); err != nil {
		t.setErr(err)
		return err
	}
	return scanFile(t.file.Path(), t.file.key, fn)
}

// scanFile streams the records of the trail file at path through fn in file
// order. A frame the file ends in the middle of (crash mid-append) or whose
// damage reaches the end of the file is a torn tail and tolerated, with all
// of its records; damage with anything after it is not.
func scanFile(path string, key []byte, fn func(Record) error) error {
	src, err := aof.OpenReader(path, key)
	if err != nil {
		return fmt.Errorf("audit: scan: %w", err)
	}
	defer src.Close()
	// buf[p:] is what has been read and not yet consumed. It grows only to
	// hold one frame, and a frame is bounded by maxFrame.
	buf := make([]byte, 0, 1<<16)
	p, eof := 0, false
	var recs []Record // one frame's
	for {
	entries:
		for p < len(buf) {
			var size int
			var err error
			recs, size, err = decodeEntry(recs[:0], buf[p:])
			switch {
			case err == nil:
			case errors.Is(err, errCorrupt) && p+size < len(buf):
				return fmt.Errorf("audit: scan: %w with %d bytes after it", err, len(buf)-p-size)
			case eof:
				return nil // torn tail
			default:
				break entries // the rest of the entry, or what follows the damage, is still to be read
			}
			p += size
			for _, r := range recs {
				if err := fn(r); err != nil {
					return err
				}
			}
		}
		if eof {
			return nil
		}
		buf = buf[:copy(buf, buf[p:])]
		p = 0
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			eof = true
		} else if err != nil {
			return fmt.Errorf("audit: scan: %w", err)
		}
	}
}

// BreachReport aggregates the audit evidence a controller must produce
// within 72 hours of a breach (Articles 33/34): which subjects' data was
// touched, by whom, through which operations, over the incident window.
type BreachReport struct {
	// Window is the [From, To) interval examined.
	From, To time.Time
	// Records is the total number of audited operations in the window.
	Records int
	// AffectedOwners maps each data subject to the number of operations
	// that touched their data.
	AffectedOwners map[string]int
	// Actors maps each principal to its operation count in the window.
	Actors map[string]int
	// Ops maps operation names to counts.
	Ops map[string]int
	// Denied is the number of denied operations (attempted violations).
	Denied int
}

// Breach builds a BreachReport for the given window in one pass over the
// trail. On a masked trail AffectedOwners is keyed by pseudonym.
func (t *Trail) Breach(from, to time.Time) (BreachReport, error) {
	rep := BreachReport{
		From:           from,
		To:             to,
		AffectedOwners: make(map[string]int),
		Actors:         make(map[string]int),
		Ops:            make(map[string]int),
	}
	window := Filter{From: from, To: to}
	err := t.Scan(func(r Record) error {
		if !window.Match(r) {
			return nil
		}
		rep.Records++
		if r.Owner != "" {
			rep.AffectedOwners[r.Owner]++
		}
		if r.Actor != "" {
			rep.Actors[r.Actor]++
		}
		rep.Ops[r.Op]++
		if r.Outcome == OutcomeDenied {
			rep.Denied++
		}
		return nil
	})
	return rep, err
}
