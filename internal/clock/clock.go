// Package clock provides a time source abstraction so that time-driven
// subsystems (TTL expiry, audit batching, AOF fsync-every-second) can run
// against either the wall clock or a deterministic virtual clock.
//
// The virtual clock is what lets this repository reproduce Figure 2 of the
// paper — an experiment that takes ~3 hours of wall time on real Redis — in
// milliseconds: the lazy probabilistic expiry algorithm's erasure delay is a
// function of the number of 100 ms cycles executed, not of real time, so
// advancing a simulated clock preserves the measured delay exactly.
//
// Product code reads the time only through a Clock; a row of
// guardrails_test.go fails on time.Now, Since or Until outside its list.
package clock

import (
	"sync"
	"time"
)

// Clock is a minimal time source. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Wall is the real time source backed by time.Now.
type Wall struct{}

// NewWall returns the wall-clock time source.
func NewWall() *Wall { return &Wall{} }

// Now implements Clock.
func (*Wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (*Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Virtual is a manually advanced clock. The zero value is not usable; use
// NewVirtual. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration {
	return v.Now().Sub(t)
}

// Advance moves the clock forward by d. Negative durations are ignored so
// the clock is monotonic.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

var _ Clock = (*Wall)(nil)
var _ Clock = (*Virtual)(nil)
