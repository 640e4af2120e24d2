package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestPutHonoursRetentionPolicy: a write's deadline is the one it asks for,
// an absolute ExpireAt over a TTL, else the config's DefaultTTL, and the
// metadata carries the deadline the engine enforces.
func TestPutHonoursRetentionPolicy(t *testing.T) {
	s := newFullStore(t, func(c *Config) { c.DefaultTTL = 48 * time.Hour })
	at := vclock(s).Now().Add(3 * time.Hour)
	for key, opts := range map[string]PutOptions{
		"ttl":      {Owner: "alice", TTL: time.Hour},
		"expireat": {Owner: "alice", ExpireAt: at, TTL: time.Hour},
		"default":  {Owner: "alice"},
	} {
		if err := s.Put(ctlCtx, key, []byte("v"), opts); err != nil {
			t.Fatal(err)
		}
	}
	for key, want := range map[string]time.Duration{"ttl": time.Hour, "expireat": 3 * time.Hour, "default": 48 * time.Hour} {
		if d, _ := s.TTL(key); d != want {
			t.Fatalf("%s: TTL = %v, want %v", key, d, want)
		}
		m, err := s.Metadata(ctlCtx, key)
		if want := vclock(s).Now().Add(want); err != nil || !m.Expiry.Equal(want) {
			t.Fatalf("%s: meta expiry = %v, %v; want %v", key, m.Expiry, err, want)
		}
	}
}

// TestPolicySatisfiesRequireTTL: full compliance refuses a write with no
// retention bound, and the config's DefaultTTL is one.
func TestPolicySatisfiesRequireTTL(t *testing.T) {
	s := newFullStore(t, func(c *Config) { c.DefaultTTL = 0 })
	if err := s.Put(ctlCtx, "x", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrNoTTL) {
		t.Fatalf("unbounded write: %v, want ErrNoTTL", err)
	}
	s = newFullStore(t, nil)
	if err := s.Put(ctlCtx, "x", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatalf("a write under DefaultTTL rejected: %v", err)
	}
}

// A compliant store's retention bound holds on both timings: one expiry
// cycle after the short-lived fifth of Figure 2's mix falls due, nothing is
// overdue. Redis's sampler would leave most of them for hours.
func TestCompliantExpiryBound(t *testing.T) {
	for _, timing := range []Timing{TimingEventual, TimingRealTime} { // EventualFull, Strict
		t.Run(timing.String(), func(t *testing.T) {
			s := newFullStore(t, func(c *Config) { c.Timing = timing })
			const n = 1000
			for i := 0; i < n; i++ {
				ttl := 5 * 24 * time.Hour
				if i%5 == 0 {
					ttl = 5 * time.Minute
				}
				if err := s.Put(ctlCtx, fmt.Sprintf("user%04d", i), []byte("payload"), PutOptions{Owner: "alice", TTL: ttl}); err != nil {
					t.Fatal(err)
				}
			}
			vclock(s).Advance(5*time.Minute + time.Second)
			s.ExpiryCycle()
			rt := s.RetentionStats()
			if rt.OverdueRecords != 0 || rt.Lag != 0 || rt.ExpiredTotal != n/5 || rt.TrackedDeadlines != n-n/5 {
				t.Fatalf("after one cycle: %+v, want nothing overdue and %d reaped", rt, n/5)
			}
		})
	}
}
