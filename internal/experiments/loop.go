package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/metrics"
	"gdprstore/pkg/gdprkv"
)

// Result is one timed loop's measurements, in the shape of a YCSB report.
type Result struct {
	// Name labels the report: "A/load", "gdprbench/customer", ...
	Name string
	// Ops is the number of operations issued; draws the workload skipped
	// are not operations. Throughput is Ops over the wall-clock Elapsed.
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64
	// PerOp holds latency summaries keyed by operation name; their counts
	// sum to Ops.
	PerOp map[string]metrics.Snapshot
	// Errors counts failed operations (they also appear in PerOp); Err is
	// the first of them.
	Errors uint64
	Err    error
	// Audit snapshots the audit pipeline after an embedded persona run
	// (nil when auditing is off): queue pressure and shed records are part
	// of the measurement — a high Dropped count means the throughput figure
	// was bought by discarding evidence.
	Audit *audit.Stats
	// OpsObserved is what a mid-run poll of a live server's ops surface saw
	// (nil unless the run was given -ops-addr).
	OpsObserved *OpsSample
}

// String formats the result like a YCSB summary block.
func (r Result) String() string {
	s := fmt.Sprintf("[%s] ops=%d elapsed=%v throughput=%.0f op/s errors=%d",
		r.Name, r.Ops, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Errors)
	names := make([]string, 0, len(r.PerOp))
	for name := range r.PerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf("\n  %-17s %s", name, r.PerOp[name].String())
	}
	if a := r.Audit; a != nil {
		s += fmt.Sprintf("\n  audit: mode=%s policy=%s queue=%d/%d enqueued=%d processed=%d dropped=%d sink_errors=%d syncs=%d",
			a.Mode, a.Policy, a.QueueDepth, a.QueueCap,
			a.Enqueued, a.Processed, a.Dropped, a.SinkErrors, a.Syncs)
	}
	if r.OpsObserved != nil {
		s += "\n  " + r.OpsObserved.String()
	}
	return s
}

// worker is one goroutine's share of a timed loop. If it is an io.Closer,
// the loop closes it when its share is done and counts a failed Close
// (a batching worker flushes its tail there) as an error.
type worker interface {
	// next draws operation i, untimed, and names its histogram. ok=false
	// means the draw issued nothing, so nothing is counted.
	next(i int64) (op string, ok bool)
	// issue performs the drawn operation: the one call the loop times.
	issue() error
}

// timedLoop is the harness's one timed loop. It hands draws 0..draws-1 to
// workers goroutines, each with its own worker from open, times every
// issued operation into a per-operation histogram, and counts issued
// operations, errors and throughput once, here.
func timedLoop(name string, draws int64, workers int, open func(w int) (worker, error)) (Result, error) {
	workers = max(workers, 1)
	var (
		next   atomic.Int64
		errs   atomic.Uint64
		first  error // written by the failure that counts 1, read after wg.Wait
		hists  = make([]map[string]*metrics.Histogram, workers)
		opened = make([]error, workers)
		wg     sync.WaitGroup
	)
	fail := func(err error) {
		if errs.Add(1) == 1 {
			first = err
		}
	}
	start := time.Now()
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk, err := open(w)
			if err != nil {
				opened[w] = err
				return
			}
			h := make(map[string]*metrics.Histogram)
			hists[w] = h
			for {
				i := next.Add(1) - 1
				if i >= draws {
					break
				}
				op, ok := wk.next(i)
				if !ok {
					continue
				}
				t0 := time.Now()
				err := wk.issue()
				d := time.Since(t0)
				if h[op] == nil {
					h[op] = metrics.NewHistogram()
				}
				h[op].Record(d)
				if err != nil {
					fail(err)
				}
			}
			if c, ok := wk.(io.Closer); ok {
				if err := c.Close(); err != nil {
					fail(err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(opened...); err != nil {
		return Result{}, err
	}

	merged := make(map[string]*metrics.Histogram)
	for _, h := range hists {
		for op, hist := range h {
			if merged[op] == nil {
				merged[op] = metrics.NewHistogram()
			}
			merged[op].Merge(hist)
		}
	}
	res := Result{Name: name, Elapsed: elapsed, PerOp: make(map[string]metrics.Snapshot, len(merged)),
		Errors: errs.Load(), Err: first}
	for op, h := range merged {
		res.PerOp[op] = h.Snapshot()
		res.Ops += h.Count()
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	return res, nil
}

// benign reports errors that are consequences of the workload itself, on
// either target: reads of missing, expired or erased records and reads
// under an objected purpose. The benchmarks do not count them as failures.
func benign(err error) bool {
	return err == nil ||
		errors.Is(err, core.ErrNotFound) || errors.Is(err, gdprkv.ErrNotFound) ||
		errors.Is(err, core.ErrPurposeDenied) || errors.Is(err, gdprkv.ErrBadPurpose) ||
		errors.Is(err, core.ErrErased) || errors.Is(err, gdprkv.ErrErased)
}

// batchErr reduces a batch read of n keys to its call error or else its
// first non-benign per-key error (errAt(i) is key i's), matching how the
// one-key path reports.
func batchErr(err error, n int, errAt func(i int) error) error {
	if err != nil {
		return err
	}
	for i := range n {
		if e := errAt(i); !benign(e) {
			return e
		}
	}
	return nil
}

// WorkDir returns dir, or a fresh temporary directory when dir is empty.
// The returned cleanup removes only a directory WorkDir created: a run
// keeps its AOF and audit files only in a directory it was given.
func WorkDir(dir, pattern string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	d, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", nil, err
	}
	return d, func() { os.RemoveAll(d) }, nil
}
