package metrics

import (
	"sort"
	"sync"
	"time"
)

// OpStats couples a histogram with an op counter for one operation type
// (READ, UPDATE, INSERT, SCAN, ...), matching YCSB's per-op reporting.
type OpStats struct {
	Name string
	Hist *Histogram
}

// NewOpStats returns stats for the named operation.
func NewOpStats(name string) *OpStats {
	return &OpStats{Name: name, Hist: NewHistogram()}
}

// Record adds a latency observation.
func (s *OpStats) Record(d time.Duration) { s.Hist.Record(d) }

// OpSet is a concurrency-safe collection of per-operation stats keyed by
// name. The RESP server keeps one per command; benchmarks can keep one per
// workload phase. Get is cheap after first use (read-locked map hit), and
// recording on the returned OpStats is lock-free.
type OpSet struct {
	mu sync.RWMutex
	m  map[string]*OpStats
}

// NewOpSet returns an empty set.
func NewOpSet() *OpSet { return &OpSet{m: make(map[string]*OpStats)} }

// Get returns the stats for name, creating them on first use.
func (s *OpSet) Get(name string) *OpStats {
	s.mu.RLock()
	st, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.m[name]; ok {
		return st
	}
	st = NewOpStats(name)
	s.m[name] = st
	return st
}

// Names returns the recorded operation names, sorted.
func (s *OpSet) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for n := range s.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshots returns a summary per operation that has at least one
// observation.
func (s *OpSet) Snapshots() map[string]Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Snapshot, len(s.m))
	for n, st := range s.m {
		if st.Hist.Count() > 0 {
			out[n] = st.Hist.Snapshot()
		}
	}
	return out
}
