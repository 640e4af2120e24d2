package store

import (
	"sync"
	"time"

	"gdprstore/internal/clock"
)

// Expirer drives the active-expire cycle, either from a background
// goroutine against the wall clock (Run/Stop) or step-by-step against a
// virtual clock (Step), which is how the Figure 2 experiment compresses
// hours of expiry lag into milliseconds.
type Expirer struct {
	db     *DB
	period time.Duration

	mu      sync.Mutex
	stopped chan struct{}
	done    chan struct{}

	cycles  uint64
	expired uint64
}

// NewExpirer creates an expirer for db using Redis's 100 ms cycle period.
func NewExpirer(db *DB) *Expirer {
	return &Expirer{db: db, period: ActiveExpireCyclePeriod}
}

// Run starts the background cycle against real time. It is a no-op if
// already running.
func (e *Expirer) Run() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped != nil {
		return
	}
	e.stopped = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop(e.stopped, e.done)
}

func (e *Expirer) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(e.period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			st := e.db.ActiveExpireCycle()
			e.mu.Lock()
			e.cycles++
			e.expired += uint64(st.Expired)
			e.mu.Unlock()
		}
	}
}

// Stop halts the background cycle and waits for it to exit.
func (e *Expirer) Stop() {
	e.mu.Lock()
	stopped, done := e.stopped, e.done
	e.stopped, e.done = nil, nil
	e.mu.Unlock()
	if stopped == nil {
		return
	}
	close(stopped)
	<-done
}

// Step advances the virtual clock by one period and runs one cycle. It
// returns the cycle stats. Step panics if the expirer's DB is not on a
// virtual clock, because stepping real time is meaningless.
func (e *Expirer) Step() CycleStats {
	vc, ok := e.db.clk.(*clock.Virtual)
	if !ok {
		panic("store: Expirer.Step requires a virtual clock")
	}
	vc.Advance(e.period)
	st := e.db.ActiveExpireCycle()
	e.mu.Lock()
	e.cycles++
	e.expired += uint64(st.Expired)
	e.mu.Unlock()
	return st
}

// Cycles returns how many cycles have run.
func (e *Expirer) Cycles() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cycles
}

// Expired returns how many keys the expirer has reclaimed.
func (e *Expirer) Expired() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expired
}

// Running reports whether the background cycle is active.
func (e *Expirer) Running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stopped != nil
}
