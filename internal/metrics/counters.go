package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a lock-free monotonic event counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// CounterSet is a concurrency-safe collection of named counters, the
// counter-shaped sibling of OpSet: OpSet holds per-operation latency
// histograms, CounterSet holds per-event totals (enqueues, drops, sync
// errors, ...). Get is cheap after first use (read-locked map hit) and
// incrementing the returned Counter is lock-free, so counters can sit on
// hot paths like the audit pipeline's enqueue.
type CounterSet struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet { return &CounterSet{m: make(map[string]*Counter)} }

// Get returns the counter for name, creating it on first use.
func (s *CounterSet) Get(name string) *Counter {
	s.mu.RLock()
	c, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.m[name]; ok {
		return c
	}
	c = &Counter{}
	s.m[name] = c
	return c
}

// Names returns the registered counter names, sorted.
func (s *CounterSet) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for n := range s.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a point-in-time copy of every counter value.
func (s *CounterSet) Snapshot() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.m))
	for n, c := range s.m {
		out[n] = c.Load()
	}
	return out
}
