package server

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/pkg/gdprkv"
)

// countingClock is a virtual clock that counts its reads, Since included,
// and moves on by n µs at its nth read, so each command measures its own
// latency.
type countingClock struct {
	*clock.Virtual
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.Advance(time.Duration(c.reads.Add(1)) * time.Microsecond)
	return c.Virtual.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// TestObserveReadsStoreClockTwice: the observe stage reads the store's
// clock once before the rest of the pipeline and once after, with a hook
// or without, and the hook gets the latency commandstats recorded.
func TestObserveReadsStoreClockTwice(t *testing.T) {
	clk := &countingClock{Virtual: clock.NewVirtual(time.Unix(0, 0))}
	cfg := core.Baseline()
	cfg.Clock = clk
	srv, c := startServer(t, cfg)
	ping := srv.CommandStats().Get("PING").Hist
	var hookD atomic.Int64
	for _, hooked := range []bool{false, true} {
		if hooked {
			srv.SetCommandHook(func(_ string, _ [][]byte, _ resp.Value, d time.Duration) { hookD.Store(int64(d)) })
		}
		for i := 0; i < 3; i++ {
			reads, sum := clk.reads.Load(), ping.Sum()
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if n := clk.reads.Load() - reads; n != 2 {
				t.Fatalf("hook %v: PING read the store clock %d times, want 2", hooked, n)
			}
			if d := ping.Sum() - sum; hooked && d != time.Duration(hookD.Load()) {
				t.Fatalf("hook saw %v, commandstats recorded %v", time.Duration(hookD.Load()), d)
			}
		}
	}
}

// TestGrantTTLFollowsStoreClock: ACL GRANT … TTL stamps its expiry on the
// store's clock, the clock the ACL checks and purges it on.
func TestGrantTTLFollowsStoreClock(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	cfg := core.Strict("")
	cfg.Clock = vc
	srv, c := startServer(t, cfg)
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("marketing")
	if _, err := c.Do("GPUT", "k", "v", "OWNER", "alice", "PURPOSES", "marketing", "TTL", "3600"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("ACL", "GRANT", "svc", "marketing", "TTL", "60"); err != nil {
		t.Fatal(err)
	}
	c.Auth("svc")
	if v, err := c.Do("GGET", "k"); err != nil || v.Text() != "v" {
		t.Fatalf("GGET under a live grant = %q, %v", v.Text(), err)
	}
	vc.Advance(61 * time.Second)
	if _, err := c.Do("GGET", "k"); !errors.Is(err, gdprkv.ErrDenied) {
		t.Fatalf("GGET after the grant's TTL: err = %v, want ErrDenied", err)
	}
	if n := srv.Store().Maintain().GrantsPurged; n != 1 {
		t.Fatalf("Maintain purged %d grants, want 1", n)
	}
}

// TestSecondsArgumentsRejectOverflow: a seconds count whose nanoseconds
// overflow a time.Duration is refused with the command's own error, and
// nothing is written. Unchecked, 9223372037 s wrapped to a negative TTL
// and 18446744074 s (about 584 years) to 0.29 s. The raw commands run on a
// baseline server, the rest on a compliant one as the controller.
func TestSecondsArgumentsRejectOverflow(t *testing.T) {
	bsrv, b := startServer(t, core.Baseline())
	srv, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	if err := b.Set("plain", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.GPut("rec", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	absent := func(st *core.Store, key string) func() bool {
		return func() bool { return !st.Exists(key) }
	}
	ttlIn := func(st *core.Store, key string, lo, hi time.Duration) func() bool {
		return func() bool { d, _ := st.Engine().TTL(key); return st.Exists(key) && lo <= d && d <= hi }
	}
	oneGrant := func() bool { return len(srv.Store().ACL().Grants("svc")) == 1 }
	for _, tc := range []struct {
		c         *tclient
		args      []string
		err       string
		unwritten func() bool
	}{
		{b, []string{"EXPIRE", "plain", "9223372037"}, "value is not an integer", ttlIn(bsrv.Store(), "plain", 0, 0)},
		{b, []string{"EXPIRE", "plain", "-9223372037"}, "value is not an integer", ttlIn(bsrv.Store(), "plain", 0, 0)},
		{b, []string{"SET", "set", "v", "EX", "9223372037"}, "invalid expire time", absent(bsrv.Store(), "set")},
		{c, []string{"EXPIRE", "rec", "9223372037"}, "value is not an integer", ttlIn(srv.Store(), "rec", time.Second, time.Minute)},
		{c, []string{"GPUT", "gput", "v", "OWNER", "alice", "PURPOSES", "billing", "TTL", "9223372037"}, "invalid ttl", absent(srv.Store(), "gput")},
		{c, []string{"GPUT", "gput", "v", "OWNER", "alice", "PURPOSES", "billing", "TTL", "18446744074"}, "invalid ttl", absent(srv.Store(), "gput")},
		{c, []string{"GMPUT", "1", "gmput", "v", "OWNER", "alice", "PURPOSES", "billing", "TTL", "9223372037"}, "invalid ttl", absent(srv.Store(), "gmput")},
		{c, []string{"ACL", "GRANT", "svc", "ads", "TTL", "9223372037"}, "invalid ttl", oneGrant},
	} {
		if _, err := tc.c.Do(tc.args...); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.err)
		}
		if !tc.unwritten() {
			t.Errorf("%v wrote despite its error", tc.args)
		}
	}
}
