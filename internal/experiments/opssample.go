package experiments

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// OpsSample aggregates what a mid-run poll of the target server's ops
// surface observed: the worst compliance lag and audit pressure seen
// while the workload ran. Scenarios attach it to their Result when the
// benchmark is pointed at a live server's -ops-addr, proving the
// observability surface carries the paper's measurements end to end.
type OpsSample struct {
	// Samples is how many successful polls contributed.
	Samples int
	// Failures counts polls that errored (server restarting, etc.).
	Failures int
	// MaxErasureLag is the worst erasure sweep lag observed.
	MaxErasureLag time.Duration
	// MaxErasurePendingRecords is the deepest dead-ciphertext backlog.
	MaxErasurePendingRecords int
	// MaxRetentionLag is the worst retention-enforcement lag observed.
	MaxRetentionLag time.Duration
	// MaxRetentionOverdue is the deepest overdue-TTL backlog.
	MaxRetentionOverdue int
	// MaxAuditQueueDepth is the deepest audit pipeline queue.
	MaxAuditQueueDepth int
	// AuditDropped is the final shed-record count.
	AuditDropped uint64
}

// String renders the one-line summary appended to scenario output.
func (s OpsSample) String() string {
	return fmt.Sprintf("ops-observed: samples=%d failures=%d max_erasure_lag=%v max_erasure_pending=%d max_retention_lag=%v max_retention_overdue=%d max_audit_queue=%d audit_dropped=%d",
		s.Samples, s.Failures, s.MaxErasureLag.Round(time.Millisecond),
		s.MaxErasurePendingRecords, s.MaxRetentionLag.Round(time.Millisecond),
		s.MaxRetentionOverdue, s.MaxAuditQueueDepth, s.AuditDropped)
}

// OpsSampler polls a gdprkv-server ops endpoint (/info/erasure,
// /info/retention, /info/audit) in the background while a scenario runs,
// folding each poll into a running OpsSample.
type OpsSampler struct {
	base     string
	interval time.Duration
	client   *http.Client

	mu     sync.Mutex
	sample OpsSample
	stop   chan struct{}
	done   chan struct{}
}

// NewOpsSampler returns a sampler for the ops server at addr
// (host:port), polling every interval (≤0 → 100ms).
func NewOpsSampler(addr string, interval time.Duration) *OpsSampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &OpsSampler{
		base:     "http://" + addr,
		interval: interval,
		client:   &http.Client{Timeout: 2 * time.Second},
	}
}

// Start begins polling until Stop. It is a no-op if already running.
func (o *OpsSampler) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stop != nil {
		return
	}
	o.stop = make(chan struct{})
	o.done = make(chan struct{})
	go o.loop(o.stop, o.done)
}

func (o *OpsSampler) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(o.interval)
	defer t.Stop()
	o.poll()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			o.poll()
		}
	}
}

// Stop halts polling and returns the aggregated sample.
func (o *OpsSampler) Stop() OpsSample {
	o.mu.Lock()
	stop, done := o.stop, o.done
	o.stop, o.done = nil, nil
	o.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sample
}

// poll fetches the three compliance sections once and folds the maxima.
func (o *OpsSampler) poll() {
	erasure, err1 := o.section("erasure")
	retention, err2 := o.section("retention")
	auditSec, err3 := o.section("audit")
	o.mu.Lock()
	defer o.mu.Unlock()
	if err1 != nil || err2 != nil || err3 != nil {
		o.sample.Failures++
		return
	}
	o.sample.Samples++
	s := &o.sample
	if lag := dur(erasure["erasure_sweep_lag_ms"]); lag > s.MaxErasureLag {
		s.MaxErasureLag = lag
	}
	if n := num(erasure["erasure_pending_records"]); n > s.MaxErasurePendingRecords {
		s.MaxErasurePendingRecords = n
	}
	if lag := dur(retention["retention_lag_ms"]); lag > s.MaxRetentionLag {
		s.MaxRetentionLag = lag
	}
	if n := num(retention["retention_overdue_records"]); n > s.MaxRetentionOverdue {
		s.MaxRetentionOverdue = n
	}
	if n := num(auditSec["audit_queue_depth"]); n > s.MaxAuditQueueDepth {
		s.MaxAuditQueueDepth = n
	}
	if n, err := strconv.ParseUint(auditSec["audit_dropped"], 10, 64); err == nil {
		s.AuditDropped = n
	}
}

// section fetches one /info/{section} flat JSON object.
func (o *OpsSampler) section(name string) (map[string]string, error) {
	resp, err := o.client.Get(o.base + "/info/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("experiments: ops /info/%s: status %d", name, resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("experiments: ops /info/%s: %w", name, err)
	}
	return out, nil
}

func num(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func dur(ms string) time.Duration {
	n, _ := strconv.ParseInt(ms, 10, 64)
	return time.Duration(n) * time.Millisecond
}
