package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestRetentionPolicyEffective(t *testing.T) {
	p := &RetentionPolicy{
		PerPurpose: map[string]time.Duration{
			"billing":   90 * 24 * time.Hour,
			"analytics": 30 * 24 * time.Hour,
		},
		Default: 7 * 24 * time.Hour,
		Cap:     365 * 24 * time.Hour,
	}
	cases := []struct {
		name      string
		purposes  []string
		requested time.Duration
		want      time.Duration
	}{
		{"single purpose", []string{"billing"}, 0, 90 * 24 * time.Hour},
		{"two purposes take the tighter", []string{"billing", "analytics"}, 0, 30 * 24 * time.Hour},
		{"request tighter than policy", []string{"billing"}, time.Hour, time.Hour},
		{"request looser than policy", []string{"billing"}, 1000 * 24 * time.Hour, 90 * 24 * time.Hour},
		{"uncovered purpose uses default", []string{"support"}, 0, 7 * 24 * time.Hour},
		{"no purposes uses default", nil, 0, 7 * 24 * time.Hour},
		{"cap binds huge requests", []string{"support"}, 9000 * 24 * time.Hour, 7 * 24 * time.Hour},
	}
	for _, c := range cases {
		if got := p.Effective(c.purposes, c.requested); got != c.want {
			t.Errorf("%s: Effective = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetentionPolicyNilAndEmpty(t *testing.T) {
	var p *RetentionPolicy
	if got := p.Effective([]string{"x"}, time.Hour); got != time.Hour {
		t.Fatalf("nil policy = %v", got)
	}
	empty := &RetentionPolicy{}
	if got := empty.Effective([]string{"x"}, 0); got != 0 {
		t.Fatalf("empty policy unbounded = %v", got)
	}
	if got := empty.Effective([]string{"x"}, time.Hour); got != time.Hour {
		t.Fatalf("empty policy passthrough = %v", got)
	}
}

func TestRetentionPolicyMonotone(t *testing.T) {
	// Property: Effective never exceeds the cap (when set) nor any
	// applicable per-purpose bound.
	f := func(reqSecs uint32, billingSecs, capSecs uint16) bool {
		p := &RetentionPolicy{
			PerPurpose: map[string]time.Duration{"billing": time.Duration(billingSecs) * time.Second},
			Cap:        time.Duration(capSecs) * time.Second,
		}
		got := p.Effective([]string{"billing"}, time.Duration(reqSecs)*time.Second)
		if p.Cap > 0 && got > p.Cap {
			return false
		}
		if b := p.PerPurpose["billing"]; b > 0 && got > b {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPutHonoursRetentionPolicy(t *testing.T) {
	s := newFullStore(t, func(c *Config) { c.DefaultTTL = 0 })
	s.SetRetentionPolicy(&RetentionPolicy{
		PerPurpose: map[string]time.Duration{"analytics": time.Hour},
		Default:    48 * time.Hour,
	})
	// Purpose-covered record gets the purpose bound even with a looser
	// request.
	err := s.Put(ctlCtx, "a", []byte("v"), PutOptions{
		Owner: "alice", Purposes: []string{"analytics"}, TTL: 100 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.TTL("a")
	if d != time.Hour {
		t.Fatalf("analytics TTL = %v, want 1h (policy must tighten)", d)
	}
	// Uncovered record gets the default.
	if err := s.Put(ctlCtx, "b", []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"support"}}); err != nil {
		t.Fatal(err)
	}
	d, _ = s.TTL("b")
	if d != 48*time.Hour {
		t.Fatalf("default TTL = %v, want 48h", d)
	}
	// Metadata mirrors the effective deadline.
	m, _ := s.Metadata(ctlCtx, "a")
	want := vclock(s).Now().Add(time.Hour)
	if !m.Expiry.Equal(want) {
		t.Fatalf("meta expiry = %v, want %v", m.Expiry, want)
	}
}

func TestPolicySatisfiesRequireTTL(t *testing.T) {
	// With a policy default in place, writes without explicit TTLs are
	// acceptable under full compliance.
	s := newFullStore(t, func(c *Config) { c.DefaultTTL = 0 })
	if err := s.Put(ctlCtx, "x", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrNoTTL) {
		t.Fatalf("pre-policy err = %v", err)
	}
	s.SetRetentionPolicy(&RetentionPolicy{Default: time.Hour})
	if err := s.Put(ctlCtx, "x", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatalf("policy-backed write rejected: %v", err)
	}
}

func TestPolicyCapsAbsoluteDeadline(t *testing.T) {
	s := newFullStore(t, nil)
	s.SetRetentionPolicy(&RetentionPolicy{Cap: time.Hour})
	farFuture := vclock(s).Now().Add(1000 * time.Hour)
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", ExpireAt: farFuture}); err != nil {
		t.Fatal(err)
	}
	d, _ := s.TTL("k")
	if d > time.Hour {
		t.Fatalf("cap did not bind ExpireAt: TTL = %v", d)
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

func TestRetentionForDisclosure(t *testing.T) {
	s := newFullStore(t, nil)
	s.SetRetentionPolicy(&RetentionPolicy{
		PerPurpose: map[string]time.Duration{"billing": 2 * time.Hour},
	})
	if got := s.RetentionFor([]string{"billing"}, 0); got != 2*time.Hour {
		t.Fatalf("RetentionFor = %v", got)
	}
	// Falls back to config default for uncovered purposes.
	if got := s.RetentionFor([]string{"other"}, 0); got != 24*time.Hour {
		t.Fatalf("RetentionFor default = %v", got)
	}
}
