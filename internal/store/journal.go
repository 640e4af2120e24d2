package store

import (
	"sync"
	"sync/atomic"
)

// journalRec is one buffered journal record awaiting its group commit. A
// non-zero ticket means the enqueuer collects the sink's error for it
// (result), where every other record's error is dropped.
type journalRec struct {
	name   string
	args   [][]byte
	ticket uint64
}

// journalQueue decouples journal I/O from the shard locks. Mutating
// operations enqueue their records while still holding the shard lock —
// that is what fixes the per-key record order — and drain the queue to the
// attached Journal only after the shard lock is released.
//
// The drain is a group commit: whichever caller acquires writeMu first
// writes every pending record (its own and any enqueued concurrently by
// other shards); callers that lose the race block on writeMu until their
// record has been written, so by the time a mutating method returns, its
// record has been handed to the Journal — the same guarantee the old
// single-mutex engine gave, without holding any shard lock across I/O.
//
// Lock order: shard.mu → mu. writeMu is only taken with no shard lock
// held, and mu is never held across a Journal call.
type journalQueue struct {
	// attached mirrors sink != nil so the no-journal fast path can skip
	// the queue's locks entirely — with no journal, the engine must not
	// funnel every shard through a shared mutex.
	attached atomic.Bool

	// pendingN counts records enqueued but not yet handed to the sink. It
	// is decremented only AFTER a drain has written its batch, so a
	// flusher that observes pendingN == 0 knows every record it enqueued
	// earlier has already been written — that is what lets flush be a
	// lock-free no-op on the common read path.
	pendingN atomic.Int64

	mu      sync.Mutex // guards pending, sink and failed
	pending []journalRec
	sink    Journal
	// spare is the drained batch, emptied, for pending to grow into next;
	// writeMu guards it.
	spare []journalRec

	// failed holds the sink's error per ticket until result collects it.
	// It is written before pendingN is lowered, so a flusher that returns
	// finds its records' errors there; nfailed keeps the lookup off the
	// path where nothing failed.
	tickets atomic.Uint64
	nfailed atomic.Int64
	failed  map[uint64]error

	writeMu sync.Mutex // serialises drains (held across Journal I/O)
}

// enqueue buffers one record. Callers hold the shard lock of the mutated
// shard (or every shard lock, for cross-shard records such as FLUSHALL),
// which fixes the order of records for any given key.
func (q *journalQueue) enqueue(name string, args ...[]byte) {
	q.enqueueTicket(0, name, args)
}

// enqueueTicket is enqueue for a record whose sink error the caller wants
// back: ticket comes from q.tickets, and result(ticket) after flush
// returns what the sink said about the records enqueued under it.
func (q *journalQueue) enqueueTicket(ticket uint64, name string, args [][]byte) {
	if !q.attached.Load() {
		return
	}
	q.mu.Lock()
	if q.sink != nil {
		q.pending = append(q.pending, journalRec{name: name, args: args, ticket: ticket})
		q.pendingN.Add(1)
	}
	q.mu.Unlock()
}

// ticket returns a fresh ticket for records the caller will enqueue if want,
// and 0 (no ticket, nothing to enqueue) if not or if no journal is attached.
func (q *journalQueue) ticket(want bool) uint64 {
	if !want || !q.active() {
		return 0
	}
	return q.tickets.Add(1)
}

// done flushes and returns the sink's error for the records enqueued under
// ticket (none for ticket 0).
func (q *journalQueue) done(ticket uint64) error {
	q.flush()
	return q.result(ticket)
}

// result returns, once, the first error the sink reported for a record
// enqueued under ticket. Call it after flush.
func (q *journalQueue) result(ticket uint64) error {
	if q.nfailed.Load() == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	err, ok := q.failed[ticket]
	if ok {
		delete(q.failed, ticket)
		q.nfailed.Add(-1)
	}
	return err
}

// drain hands batch to sink in order and lowers pendingN once all of it is
// written. Callers hold writeMu.
func (q *journalQueue) drain(sink Journal, batch []journalRec) {
	if sink != nil {
		for _, r := range batch {
			err := sink.AppendOp(r.name, r.args...)
			if err == nil || r.ticket == 0 {
				continue
			}
			q.mu.Lock()
			if _, dup := q.failed[r.ticket]; !dup {
				if q.failed == nil {
					q.failed = make(map[uint64]error)
				}
				q.failed[r.ticket] = err
				q.nfailed.Add(1)
			}
			q.mu.Unlock()
		}
	}
	q.pendingN.Add(-int64(len(batch)))
}

// active reports whether a journal is attached; mutating paths use it to
// skip enqueueing, flushing, and building record payloads when nobody is
// listening.
func (q *journalQueue) active() bool { return q.attached.Load() }

// flush drains every pending record to the sink, in enqueue order. Callers
// must not hold any shard lock. Journal errors are dropped unless the record
// carries a ticket: the journal's own health API (the AOF's LastErr, INFO
// aof_last_error) reports them, and the engine keeps serving, as Redis does
// with appendfsync errors.
func (q *journalQueue) flush() {
	if !q.attached.Load() || q.pendingN.Load() == 0 {
		return
	}
	q.writeMu.Lock()
	defer q.writeMu.Unlock()
	q.mu.Lock()
	batch := q.pending
	q.pending = q.spare
	sink := q.sink
	q.mu.Unlock()
	if len(batch) > 0 {
		q.drain(sink, batch)
	}
	clear(batch) // drop the records' arguments
	q.spare = batch[:0]
}

// multiJournal fans one record out to several sinks in order. It is the
// composition point that lets the engine's group-commit queue feed the AOF
// and the network replication stream at once: the queue drains each record to the multiJournal exactly once, and the
// multiJournal hands it to every leg before returning, so all legs observe
// the same record order.
type multiJournal struct {
	legs []Journal
}

// NewMultiJournal composes journals into one sink. Nil legs are skipped; a
// single non-nil leg is returned unwrapped; all-nil returns nil (so callers
// can pass the result straight to SetJournal and keep the engine's
// no-journal fast path).
func NewMultiJournal(legs ...Journal) Journal {
	nonNil := make([]Journal, 0, len(legs))
	for _, j := range legs {
		if j != nil {
			nonNil = append(nonNil, j)
		}
	}
	switch len(nonNil) {
	case 0:
		return nil
	case 1:
		return nonNil[0]
	default:
		return &multiJournal{legs: nonNil}
	}
}

// AppendOp implements Journal: every leg receives the record, in leg order;
// the first error is returned after all legs have been offered the record
// (a failing AOF must not starve the replication stream, or vice versa).
func (m *multiJournal) AppendOp(name string, args ...[]byte) error {
	var first error
	for _, j := range m.legs {
		if err := j.AppendOp(name, args...); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// set attaches (or detaches, with nil) the journal. It waits out any
// in-flight drain, then drains records still buffered for the previous
// sink to that sink — a mutation whose enqueue won the race against the
// swap must not lose its record (its flush may observe pendingN == 0 and
// trust that someone wrote it).
func (q *journalQueue) set(j Journal) {
	q.writeMu.Lock()
	defer q.writeMu.Unlock()
	q.mu.Lock()
	batch := q.pending
	old := q.sink
	q.pending = nil
	q.sink = j
	q.attached.Store(j != nil)
	q.mu.Unlock()
	q.drain(old, batch)
}
