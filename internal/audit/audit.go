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
// Since the pipeline rebuild, Append is a cheap enqueue onto a bounded
// queue drained by worker goroutines that pseudonymize (mask.go), encode
// (codec.go) and write records through pluggable sinks (sink.go,
// socket.go), a whole claim of up to 64 records per write. Strict mode
// keeps its fsync-before-ack semantics through a per-record completion
// handshake — with the free upside that concurrent strict appends
// group-commit under one fsync. Back-pressure when the
// queue fills is a policy: Block (no record ever lost; the data path
// waits) or Drop (the data path never waits; shed records are counted).
// See DESIGN.md §11.
package audit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/metrics"
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
	defaultWorkers      = 2
	defaultQueueDepth   = 4096
	defaultDrainTimeout = 5 * time.Second
	// workerBatch bounds how many queued records one worker claims per
	// pass; in strict mode this is also the group-commit width.
	workerBatch = 64
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
	// MemoryCap bounds the in-memory tail kept for fast queries; older
	// records remain on disk. Default 1<<16 records, 0 means default;
	// negative means keep nothing in memory.
	MemoryCap int
	// Workers is the number of pipeline worker goroutines (default 2).
	Workers int
	// QueueDepth bounds the enqueue ring (default 4096).
	QueueDepth int
	// Backpressure selects the full-queue policy (default Block).
	Backpressure Backpressure
	// MaskKey, if non-nil, pseudonymizes Key/Owner/Detail under this key
	// before any sink sees the record (mask.go). Engine-side queries
	// resolve pseudonyms through the in-memory reverse table.
	MaskKey []byte
	// ExtraSinks are appended after the file and memory sinks — e.g. a
	// SocketSink exporting the trail to an external collector.
	ExtraSinks []Sink
	// DrainTimeout bounds how long Close waits for the queue to drain
	// (default 5s).
	DrainTimeout time.Duration
}

// pending is one queued unit: the record plus, for strict appends and
// barriers, the completion handshake channel.
type pending struct {
	rec  Record
	done chan error
}

// Trail is an audit log. All methods are safe for concurrent use.
type Trail struct {
	mode   SyncMode
	policy Backpressure
	clk    clock.Clock

	seq atomic.Uint64

	// mu guards closed against enqueue: Append holds it shared for the
	// enqueue attempt, Close holds it exclusively while flipping closed —
	// after which no send can race the queue close. Blocked (Block
	// policy) senders release their share when closing closes.
	mu      sync.RWMutex
	closed  bool
	closing chan struct{}
	queue   chan pending

	file   *FileSink
	mem    *MemSink
	sink   Sink
	masker *Masker

	counters             *metrics.CounterSet
	enqueued             *metrics.Counter
	dropped              *metrics.Counter
	processed            *metrics.Counter
	sinkErrors           *metrics.Counter
	masked               *metrics.Counter
	errMu                sync.Mutex
	lastErr              error
	workers              int
	drainTimeout         time.Duration
	workerWG             sync.WaitGroup
	stopFlusher, flushed chan struct{}
}

// Open creates or appends to an audit trail and starts its pipeline.
func Open(opts Options) (*Trail, error) {
	t := &Trail{
		mode:         opts.Mode,
		policy:       opts.Backpressure,
		clk:          opts.Clock,
		closing:      make(chan struct{}),
		counters:     metrics.NewCounterSet(),
		workers:      opts.Workers,
		drainTimeout: opts.DrainTimeout,
	}
	if t.clk == nil {
		t.clk = clock.NewWall()
	}
	if t.workers <= 0 {
		t.workers = defaultWorkers
	}
	if t.drainTimeout <= 0 {
		t.drainTimeout = defaultDrainTimeout
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	t.queue = make(chan pending, depth)
	t.enqueued = t.counters.Get("enqueued")
	t.dropped = t.counters.Get("dropped")
	t.processed = t.counters.Get("processed")
	t.sinkErrors = t.counters.Get("sink_errors")
	t.masked = t.counters.Get("masked")

	memCap := opts.MemoryCap
	if memCap == 0 {
		memCap = 1 << 16
	}
	if memCap > 0 {
		t.mem = NewMemSink(memCap)
	}
	if opts.Path != "" {
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

	t.workerWG.Add(t.workers)
	for i := 0; i < t.workers; i++ {
		go t.worker()
	}
	if opts.Mode == SyncBatched {
		t.stopFlusher = make(chan struct{})
		t.flushed = make(chan struct{})
		go t.flushLoop()
	}
	return t, nil
}

// Append adds one record, assigning its sequence number and timestamp,
// and enqueues it for the pipeline. Under SyncEveryOp it does not return
// until the record is fsynced (the strict-compliance handshake); under
// the other modes it returns as soon as the record is queued. Under the
// Drop policy a full queue returns ErrDropped (with the assigned record:
// the operation proceeds, the monitoring gap is counted).
func (t *Trail) Append(r Record) (Record, error) {
	strict := t.mode == SyncEveryOp
	var done chan error
	if strict {
		done = make(chan error, 1)
	}

	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return Record{}, ErrClosed
	}
	r.Seq = t.seq.Add(1)
	r.Time = t.clk.Now()
	p := pending{rec: r, done: done}
	if t.policy == BackpressureDrop {
		select {
		case t.queue <- p:
			t.enqueued.Inc()
		default:
			t.dropped.Inc()
			t.mu.RUnlock()
			return r, ErrDropped
		}
		t.mu.RUnlock()
	} else {
		select {
		case t.queue <- p:
			t.enqueued.Inc()
			t.mu.RUnlock()
		case <-t.closing:
			t.mu.RUnlock()
			return Record{}, ErrClosed
		}
	}

	if strict {
		if err := <-done; err != nil {
			return r, err
		}
	}
	return r, nil
}

// worker drains the queue: each pass claims up to workerBatch pending
// records, masks them, encodes the whole claim into one buffer the worker
// owns, hands the sink one write, and — in strict mode — issues one fsync
// for the claim before acknowledging each handshake (group commit).
func (t *Trail) worker() {
	defer t.workerWG.Done()
	batch := make([]pending, 0, workerBatch)
	recs := make([]Record, 0, workerBatch)
	var enc []byte
	for p := range t.queue {
		batch = append(batch[:0], p)
	claim:
		for len(batch) < workerBatch {
			select {
			case q, ok := <-t.queue:
				if !ok {
					break claim
				}
				batch = append(batch, q)
			default:
				break claim
			}
		}
		recs, enc = recs[:0], enc[:0]
		for _, q := range batch {
			r := q.rec
			if t.masker != nil {
				r = t.masker.Mask(r)
				t.masked.Inc()
			}
			recs = append(recs, r)
			enc = appendRecord(enc, r)
		}
		err := t.sink.Write(recs, enc)
		if t.mode == SyncEveryOp {
			// Even after a failed write: a MultiSink reports a dead export
			// sink while the file sink took the batch and owes its fsync.
			err = errors.Join(err, t.sink.Sync())
		}
		if err != nil {
			t.sinkErrors.Inc()
			t.setErr(err)
		}
		t.processed.Add(uint64(len(batch)))
		for _, q := range batch {
			if q.done != nil {
				q.done <- err
			}
		}
	}
}

// flushLoop is the SyncBatched once-per-second durability pump. Sync
// failures are not discarded: they set LastErr and count in sink_errors,
// so batched-mode persistence failures surface in INFO audit.
func (t *Trail) flushLoop() {
	defer close(t.flushed)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-t.stopFlusher:
			return
		case <-tick.C:
			if err := t.sink.Sync(); err != nil {
				t.sinkErrors.Inc()
				t.setErr(err)
			}
		}
	}
}

func (t *Trail) setErr(err error) {
	t.errMu.Lock()
	t.lastErr = err
	t.errMu.Unlock()
}

// barrier waits until every record enqueued before the call has been
// processed by the workers, bounded by the drain timeout. Queries use it
// so reads observe their own writes through the async pipeline.
func (t *Trail) barrier() error {
	target := t.enqueued.Load()
	deadline := time.Now().Add(t.drainTimeout)
	for t.processed.Load() < target {
		if time.Now().After(deadline) {
			return ErrDrainTimeout
		}
		time.Sleep(100 * time.Microsecond)
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

// Counters exposes the pipeline's event counters (enqueued, dropped,
// processed, sink_errors, masked).
func (t *Trail) Counters() *metrics.CounterSet { return t.counters }

// Masker returns the PII masker, or nil when masking is disabled.
func (t *Trail) Masker() *Masker { return t.masker }

// Stats is a point-in-time view of the pipeline, the payload of the
// server's INFO audit section.
type Stats struct {
	Mode        SyncMode
	Policy      Backpressure
	Workers     int
	QueueCap    int
	QueueDepth  int
	Seq         uint64
	Enqueued    uint64
	Processed   uint64
	Dropped     uint64
	SinkErrors  uint64
	Masked      uint64
	Syncs       uint64
	MaskEnabled bool
	LastErr     string
}

// Stats snapshots the pipeline counters.
func (t *Trail) Stats() Stats {
	st := Stats{
		Mode:        t.mode,
		Policy:      t.policy,
		Workers:     t.workers,
		QueueCap:    cap(t.queue),
		QueueDepth:  len(t.queue),
		Seq:         t.seq.Load(),
		Enqueued:    t.enqueued.Load(),
		Processed:   t.processed.Load(),
		Dropped:     t.dropped.Load(),
		SinkErrors:  t.sinkErrors.Load(),
		Masked:      t.masked.Load(),
		Syncs:       t.Syncs(),
		MaskEnabled: t.masker != nil,
	}
	if err := t.LastErr(); err != nil {
		st.LastErr = err.Error()
	}
	return st
}

// Close drains the queue (bounded by DrainTimeout), stops the workers and
// flusher, and closes every sink. Appends racing Close get ErrClosed;
// every append acknowledged before Close began is durable when Close
// returns nil.
func (t *Trail) Close() error {
	// Unblock any sender stuck on a full queue, then flip closed under
	// the exclusive lock: once taken, no goroutine is inside an enqueue
	// critical section, so closing the channel below cannot race a send.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closing)
	t.mu.Unlock()
	close(t.queue)

	drained := make(chan struct{})
	go func() {
		t.workerWG.Wait()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-time.After(t.drainTimeout):
		drainErr = fmt.Errorf("%w after %v (%d records unflushed)",
			ErrDrainTimeout, t.drainTimeout, t.enqueued.Load()-t.processed.Load())
	}
	if t.stopFlusher != nil {
		close(t.stopFlusher)
		<-t.flushed
	}
	if drainErr != nil {
		// Workers may still hold the sink; closing it under them would
		// trade a bounded leak for a use-after-close.
		t.setErr(drainErr)
		return drainErr
	}
	if err := t.sink.Close(); err != nil {
		t.setErr(err)
		return err
	}
	return nil
}
