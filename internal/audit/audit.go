// Package audit implements the monitoring subsystem GDPR Article 30
// ("records of processing activities") requires: a sequence-numbered,
// timestamped trail of every control- and data-path interaction with
// personal data, durable enough to demonstrate compliance (Art. 5.2) and
// queryable enough to drive the 72-hour breach notifications of Articles
// 33/34.
//
// This is the subsystem whose cost §4.1 of the paper measures: in strict
// (real-time) mode every record is fsynced before the operation is
// acknowledged, which turns every read into a read-plus-durable-write; in
// eventual mode records are batched and flushed once per second.
//
// Append is an in-memory append onto a bounded ring and wakes nobody; one
// drainer goroutine takes what has queued once per window (1 ms, or sooner
// when a quarter of the ring is waiting) and pseudonymizes (mask.go),
// encodes (codec.go) and writes it in place through pluggable sinks
// (sink.go, socket.go), up to 64 records per write. Strict mode keeps its
// fsync-before-ack semantics through a per-record completion handshake,
// and everything that arrived during one fsync commits under the next.
// A full queue is a policy: Block (nothing lost; the data path waits) or
// Drop (the data path never waits; shed records are counted). See
// DESIGN.md §11.
package audit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/clock"
)

// Outcome classifies how an audited operation ended.
type Outcome string

// Outcomes.
const (
	OutcomeOK      Outcome = "ok"
	OutcomeDenied  Outcome = "denied"
	OutcomeMissing Outcome = "missing"
	OutcomeError   Outcome = "error"
)

// Record is one audit-trail entry.
type Record struct {
	// Seq is the trail-assigned monotonic sequence number.
	Seq uint64 `json:"seq"`
	// Time is the trail-assigned timestamp.
	Time time.Time `json:"time"`
	// Actor is the authenticated principal that issued the operation.
	Actor string `json:"actor"`
	// Op is the operation name (GET, SET, DEL, GETUSER, ...).
	Op string `json:"op"`
	// Key is the affected key, if any.
	Key string `json:"key,omitempty"`
	// Owner is the data subject whose personal data was touched, if known.
	Owner string `json:"owner,omitempty"`
	// Purpose is the declared processing purpose, if any.
	Purpose string `json:"purpose,omitempty"`
	// Outcome reports how the operation ended.
	Outcome Outcome `json:"outcome"`
	// Detail carries free-form context (error text, byte counts, ...).
	Detail string `json:"detail,omitempty"`
}

// SyncMode selects when audit records reach stable storage.
type SyncMode int

// Sync modes; the names mirror the paper's compliance spectrum.
const (
	// SyncNone never forces a flush (monitoring effectively best-effort).
	SyncNone SyncMode = iota
	// SyncBatched flushes once per second — "eventual compliance".
	SyncBatched
	// SyncEveryOp fsyncs each record before Append returns — "real-time
	// compliance". Concurrent appends share one fsync (group commit), so
	// the semantics stay per-record while the cost amortises.
	SyncEveryOp
)

// String returns a human-readable mode name.
func (m SyncMode) String() string {
	switch m {
	case SyncEveryOp:
		return "every-op"
	case SyncBatched:
		return "batched-1s"
	default:
		return "none"
	}
}

// Backpressure selects what Append does when the queue is full.
type Backpressure int

// Back-pressure policies.
const (
	// BackpressureBlock makes Append wait for queue space: no record is
	// ever shed, at the cost of coupling the data path to sink speed.
	BackpressureBlock Backpressure = iota
	// BackpressureDrop sheds the record and returns ErrDropped: the data
	// path never waits, and the dropped counter records the monitoring
	// gap for alerting.
	BackpressureDrop
)

// String returns the policy name.
func (b Backpressure) String() string {
	if b == BackpressureDrop {
		return "drop"
	}
	return "block"
}

// Errors returned by the pipeline.
var (
	// ErrClosed is returned by Append after Close.
	ErrClosed = errors.New("audit: closed")
	// ErrDropped is returned by Append when the Drop policy sheds the
	// record. The operation itself succeeded; only its evidence was shed.
	ErrDropped = errors.New("audit: record dropped (queue full)")
	// ErrDrainTimeout is returned by Close when the queue could not drain
	// within DrainTimeout.
	ErrDrainTimeout = errors.New("audit: drain timeout")
)

// Pipeline defaults.
const (
	defaultQueueDepth   = 4096
	defaultDrainTimeout = 5 * time.Second
	// workerBatch bounds how many records the drainer hands a sink in one
	// Write.
	workerBatch = 64
	// drainWindow is how long the first record the drainer has not taken
	// waits for company before it is woken (DESIGN.md §11: why a constant).
	drainWindow = time.Millisecond
)

// Options configures a Trail.
type Options struct {
	// Path is the trail file. Empty means in-memory only (no durability;
	// useful for tests and for isolating CPU overhead in benchmarks).
	Path string
	// Mode is the durability mode.
	Mode SyncMode
	// Key, if non-nil, encrypts the trail at rest (32 bytes).
	Key []byte
	// Clock supplies record timestamps; defaults to the wall clock.
	Clock clock.Clock
	// MemoryCap bounds the in-memory ring a trail without a Path keeps for
	// queries. Default 1<<16 records, 0 means default; negative means keep
	// nothing. A trail with a file keeps no ring: its queries read the
	// file, which is complete, and never looked at one.
	MemoryCap int
	// QueueDepth bounds the records accepted and not yet written (default
	// 4096).
	QueueDepth int
	// Backpressure selects the full-queue policy (default Block).
	Backpressure Backpressure
	// MaskKey, if non-nil, pseudonymizes Key/Owner/Detail under this key
	// before any sink sees the record (mask.go). Engine-side queries
	// resolve pseudonyms through the in-memory reverse table.
	MaskKey []byte
	// ExtraSinks are appended after the file or memory sink — e.g. a
	// SocketSink exporting the trail to an external collector.
	ExtraSinks []Sink
	// DrainTimeout bounds how long Close waits for the queue to drain
	// (default 5s).
	DrainTimeout time.Duration
}

// pending is one queued record and, for a strict append, its handshake.
type pending struct {
	rec  Record
	done chan error
}

// Trail is an audit log. All methods are safe for concurrent use.
type Trail struct {
	mode   SyncMode
	policy Backpressure
	clk    clock.Clock

	// mu guards head, n, backlog and closed, and orders changes of processed
	// against the waiters on cond. Slots head..head+n (mod len) are occupied;
	// the drainer reads them in place, unlocked: producers write free slots.
	mu      sync.Mutex
	cond    *sync.Cond // broadcast on release (space, barrier) and on Close
	ring    []pending  // QueueDepth long, never reallocated
	head, n int
	backlog int // records queued since the current or last pass took its share
	closed  bool
	wake    chan struct{} // capacity 1: a token means a drain has been asked for
	window  *time.Timer   // one-shot drainWindow, armed by the first record of a backlog
	seq     atomic.Uint64

	file   *FileSink
	mem    *MemSink
	sink   Sink
	masker *Masker

	enqueued     atomic.Uint64
	dropped      atomic.Uint64
	processed    atomic.Uint64
	sinkErrors   atomic.Uint64
	masked       atomic.Uint64
	errMu        sync.Mutex
	lastErr      error
	drainTimeout time.Duration
	drained      chan struct{} // closed when the drainer has exited
}

// Open creates or appends to an audit trail and starts its pipeline.
func Open(opts Options) (*Trail, error) {
	t := &Trail{
		mode:         opts.Mode,
		policy:       opts.Backpressure,
		clk:          opts.Clock,
		wake:         make(chan struct{}, 1),
		drained:      make(chan struct{}),
		drainTimeout: opts.DrainTimeout,
	}
	t.cond = sync.NewCond(&t.mu)
	if t.clk == nil {
		t.clk = clock.NewWall()
	}
	if t.drainTimeout <= 0 {
		t.drainTimeout = defaultDrainTimeout
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	t.ring = make([]pending, depth)
	t.window = time.AfterFunc(drainWindow, t.kick)
	t.window.Stop()

	if opts.Path == "" {
		memCap := opts.MemoryCap
		if memCap == 0 {
			memCap = 1 << 16
		}
		if memCap > 0 {
			t.mem = NewMemSink(memCap)
		}
	} else {
		fs, err := NewFileSink(opts.Path, opts.Key)
		if err != nil {
			return nil, err
		}
		// Resume the sequence from the persisted trail so restarts keep
		// the numbering monotonic — a bounded tail read, not an O(file)
		// scan.
		last, err := RecoverLastSeq(opts.Path, opts.Key)
		if err != nil {
			fs.Close()
			return nil, err
		}
		t.seq.Store(last)
		t.file = fs
	}
	if opts.MaskKey != nil {
		t.masker = NewMasker(opts.MaskKey)
	}

	var sinks []Sink
	if t.file != nil {
		sinks = append(sinks, t.file)
	}
	if t.mem != nil {
		sinks = append(sinks, t.mem)
	}
	sinks = append(sinks, opts.ExtraSinks...)
	switch len(sinks) {
	case 1:
		t.sink = sinks[0]
	default:
		t.sink = NewMultiSink(sinks...)
	}

	go t.drain()
	return t, nil
}

// Append adds one record, assigning its sequence number and timestamp
// under the queue lock: queue, file and sequence order are one order. Under
// SyncEveryOp it does not return until the record is fsynced (the strict-
// compliance handshake); otherwise it returns once the record is queued,
// having woken nobody unless the backlog just reached a quarter of the ring.
// A full queue under Drop returns ErrDropped with the assigned record.
func (t *Trail) Append(r Record) (Record, error) {
	var done chan error // the strict handshake
	if t.mode == SyncEveryOp {
		done = make(chan error, 1)
	}

	t.mu.Lock()
	for t.n == len(t.ring) && !t.closed && t.policy == BackpressureBlock {
		t.kick()
		t.cond.Wait()
	}
	if t.closed {
		t.mu.Unlock()
		return Record{}, ErrClosed
	}
	r.Seq, r.Time = t.seq.Add(1), t.clk.Now()
	if t.n == len(t.ring) {
		t.dropped.Add(1)
		t.mu.Unlock()
		return r, ErrDropped
	}
	t.ring[(t.head+t.n)%len(t.ring)] = pending{rec: r, done: done}
	t.n++
	t.backlog++
	t.enqueued.Add(1)
	switch {
	case done != nil || t.backlog == len(t.ring)/4:
		t.kick()
	case t.backlog == 1 && len(t.wake) == 0: // a drain already asked for takes this one too
		t.window.Reset(drainWindow)
	}
	t.mu.Unlock()

	if done != nil {
		return r, <-done
	}
	return r, nil
}

// kick asks for a drain; one that is already asked for covers this one.
func (t *Trail) kick() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// drain is the pipeline's one goroutine. Each token (or, under SyncBatched,
// the once-per-second durability tick) buys one pass over everything queued
// at that moment. Records arriving during a pass wait for their own window
// unless they bring the backlog to a quarter of the ring, are strict, or
// Close follows them: each of those leaves a token, so the next pass starts
// at once. The pass that finds the trail closed empties it and is the last.
func (t *Trail) drain() {
	defer close(t.drained)
	var tick <-chan time.Time
	if t.mode == SyncBatched {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		tick = ticker.C
	}
	recs := make([]Record, 0, workerBatch)
	var enc []byte
	var ce claimEncoder
	var dones []chan error
	for {
		due := false
		select {
		case <-t.wake:
		case <-tick:
			due = true
		}
		t.mu.Lock()
		at, left, closed := t.head, t.n, t.closed
		t.backlog = 0
		t.window.Stop() // this pass takes what the window was armed for
		t.mu.Unlock()

		// Claims of up to workerBatch records, not across the ring's end:
		// one Sink.Write each, then the slots go back to producers.
		var err error
		for left > 0 {
			claim := t.ring[at:min(at+workerBatch, at+left, len(t.ring))]
			recs = recs[:0]
			for _, q := range claim {
				r := q.rec
				if t.masker != nil {
					r = t.masker.Mask(r)
					t.masked.Add(1)
				}
				recs = append(recs, r)
				if q.done != nil {
					dones = append(dones, q.done)
				}
			}
			enc = ce.appendClaim(enc[:0], recs)
			err = errors.Join(err, t.sinkFailed(t.sink.Write(recs, enc)))
			clear(claim) // the records' strings are the sinks' now, not the queue's
			at, left = (at+len(claim))%len(t.ring), left-len(claim)
			t.mu.Lock()
			t.head, t.n = at, t.n-len(claim)
			t.processed.Add(uint64(len(claim)))
			t.cond.Broadcast()
			t.mu.Unlock()
		}
		// Strict: one fsync covers the pass before any handshake in it is
		// acknowledged, even after a failed write (a MultiSink reports a dead
		// export sink while the file sink took the batch). Batched: the tick.
		if len(dones) > 0 || due {
			err = errors.Join(err, t.sinkFailed(t.sink.Sync()))
		}
		for _, done := range dones {
			done <- err
		}
		dones = dones[:0]
		if closed {
			return
		}
	}
}

// sinkFailed records a sink error, if err is one, and returns it.
func (t *Trail) sinkFailed(err error) error {
	if err != nil {
		t.sinkErrors.Add(1)
		t.setErr(err)
	}
	return err
}

func (t *Trail) setErr(err error) {
	t.errMu.Lock()
	t.lastErr = err
	t.errMu.Unlock()
}

// barrier waits, bounded by the drain timeout, until every record accepted
// before the call has reached the sinks, so queries read their own writes.
// It kicks the drainer rather than wait out the window.
func (t *Trail) barrier() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	target := t.enqueued.Load()
	if t.processed.Load() >= target {
		return nil
	}
	t.kick()
	expired := false
	timeout := time.AfterFunc(t.drainTimeout, func() {
		t.mu.Lock()
		expired = true
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timeout.Stop()
	for t.processed.Load() < target {
		if expired {
			return ErrDrainTimeout
		}
		t.cond.Wait()
	}
	return nil
}

// Sync drains the queue and forces buffered records to stable storage.
func (t *Trail) Sync() error {
	if err := t.barrier(); err != nil {
		return err
	}
	return t.sink.Sync()
}

// Seq returns the last assigned sequence number.
func (t *Trail) Seq() uint64 { return t.seq.Load() }

// Syncs returns the number of trail-file fsyncs issued.
func (t *Trail) Syncs() uint64 {
	if t.file == nil {
		return 0
	}
	return t.file.Syncs()
}

// Size returns the logical trail size in bytes (0 for in-memory trails).
func (t *Trail) Size() int64 {
	if t.file == nil {
		return 0
	}
	return t.file.Size()
}

// LastErr returns the most recent persistence or sink error.
func (t *Trail) LastErr() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.lastErr
}

// Mode returns the durability mode.
func (t *Trail) Mode() SyncMode { return t.mode }

// Policy returns the back-pressure policy.
func (t *Trail) Policy() Backpressure { return t.policy }

// Masker returns the PII masker, or nil when masking is disabled.
func (t *Trail) Masker() *Masker { return t.masker }

// Stats is a point-in-time view of the pipeline, the payload of the
// server's INFO audit section.
type Stats struct {
	Mode        SyncMode
	Policy      Backpressure
	QueueCap    int // the most records held accepted and not yet written
	QueueDepth  int // how many are held now
	Seq         uint64
	Enqueued    uint64
	Processed   uint64
	Dropped     uint64
	SinkErrors  uint64
	Masked      uint64
	Syncs       uint64
	Size        int64 // trail file bytes, 0 without a file
	MaskEnabled bool
	LastErr     string
}

// Stats snapshots the pipeline counters.
func (t *Trail) Stats() Stats {
	processed := t.processed.Load() // before enqueued, so the depth is never negative
	enqueued := t.enqueued.Load()
	st := Stats{
		Mode:        t.mode,
		Policy:      t.policy,
		QueueCap:    len(t.ring),
		QueueDepth:  int(enqueued - processed),
		Seq:         t.seq.Load(),
		Enqueued:    enqueued,
		Processed:   processed,
		Dropped:     t.dropped.Load(),
		SinkErrors:  t.sinkErrors.Load(),
		Masked:      t.masked.Load(),
		Syncs:       t.Syncs(),
		Size:        t.Size(),
		MaskEnabled: t.masker != nil,
	}
	if err := t.LastErr(); err != nil {
		st.LastErr = err.Error()
	}
	return st
}

// Close stops accepting appends, drains the queue (bounded by DrainTimeout)
// and closes every sink. Appends racing Close, and producers parked on a
// full queue, get ErrClosed; every acknowledged append is durable on nil.
func (t *Trail) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.kick()
	t.mu.Unlock()

	var err error
	select {
	case <-t.drained:
		err = t.sink.Close()
	case <-time.After(t.drainTimeout):
		// The drainer may still hold the sink; closing it under it would
		// trade a bounded leak for a use-after-close.
		err = fmt.Errorf("%w after %v (%d records unflushed)",
			ErrDrainTimeout, t.drainTimeout, t.enqueued.Load()-t.processed.Load())
	}
	if err != nil {
		t.setErr(err)
	}
	return err
}
