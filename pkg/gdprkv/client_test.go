package gdprkv_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/replica"
	"gdprstore/internal/resp"
	"gdprstore/internal/server"
	"gdprstore/internal/testutil"
	"gdprstore/pkg/gdprkv"
)

const wait = 10 * time.Second

func ctxb() context.Context { return context.Background() }

// startServer boots one server over a fresh store.
func startServer(t *testing.T, cfg core.Config) (*server.Server, *core.Store) {
	t.Helper()
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, st
}

// startReplicated boots a compliant primary and one replica attached over
// real TCP (REPLCONF/PSYNC handshake, full sync, live stream).
func startReplicated(t *testing.T) (psrv, rsrv *server.Server) {
	t.Helper()
	cfg := core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true}
	psrv, _ = startServer(t, cfg)
	rsrv, _ = startServer(t, cfg)
	rsrv.ReplicaOf(psrv.Addr(), replica.NodeOptions{})
	testutil.Eventually(t, wait, 0, func() bool {
		nd := rsrv.ReplNode()
		return nd != nil && nd.Status().Link == replica.LinkUp
	}, "replica link never came up")
	return psrv, rsrv
}

// dial wraps gdprkv.Dial with test cleanup.
func dial(t *testing.T, addr string, opts ...gdprkv.Option) *gdprkv.Client {
	t.Helper()
	c, err := gdprkv.Dial(ctxb(), addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// --- typed errors over the wire ---

func TestTypedErrorsEndToEnd(t *testing.T) {
	srv, st := startServer(t, core.Config{
		Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true,
	})
	st.ACL().AddPrincipal(acl.Principal{ID: "app", Role: acl.RoleController})
	st.ACL().AddPrincipal(acl.Principal{ID: "alice", Role: acl.RoleSubject})

	app := dial(t, srv.Addr(), gdprkv.WithActor("app"), gdprkv.WithPurpose("ads"))

	// Missing key → ErrNotFound; a compliant server refuses the raw Get,
	// even to a controller.
	if _, err := app.GGet(ctxb(), "absent"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("GGet(absent) = %v, want ErrNotFound", err)
	}
	if _, err := app.Get(ctxb(), "absent"); !errors.Is(err, gdprkv.ErrDenied) {
		t.Fatalf("Get(absent) = %v, want ErrDenied", err)
	}

	// A write without an owner violates policy.
	err := app.GPut(ctxb(), "k", []byte("v"), gdprkv.PutOptions{Purposes: []string{"ads"}, TTL: time.Hour})
	if !errors.Is(err, gdprkv.ErrPolicy) {
		t.Fatalf("ownerless GPut = %v, want ErrPolicy", err)
	}

	// A proper write succeeds; reading it under a non-consented purpose
	// is a purpose-limitation rejection.
	if err := app.GPut(ctxb(), "user:alice:email", []byte("a@ex.org"),
		gdprkv.PutOptions{Owner: "alice", Purposes: []string{"ads"}, TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	marketing := dial(t, srv.Addr(), gdprkv.WithActor("app"), gdprkv.WithPurpose("telemetry"))
	if _, err := marketing.GGet(ctxb(), "user:alice:email"); !errors.Is(err, gdprkv.ErrBadPurpose) {
		t.Fatalf("off-purpose GGet = %v, want ErrBadPurpose", err)
	}

	// Unauthenticated GDPR commands are denied under an enforcing ACL.
	anon := dial(t, srv.Addr())
	if _, err := anon.GGet(ctxb(), "user:alice:email"); !errors.Is(err, gdprkv.ErrDenied) {
		t.Fatalf("unauthenticated GGet = %v, want ErrDenied", err)
	}

	// The decoded *ServerError preserves the wire code and message.
	var se *gdprkv.ServerError
	if _, err := anon.GGet(ctxb(), "user:alice:email"); !errors.As(err, &se) || se.Code != "DENIED" {
		t.Fatalf("err = %v, want *ServerError with code DENIED", err)
	}

	// Per-key errors inside a GMGET batch decode through the same mapper.
	batch, err := app.GMGet(ctxb(), "user:alice:email", "absent")
	if err != nil {
		t.Fatal(err)
	}
	if string(batch[0].Value) != "a@ex.org" {
		t.Fatalf("batch[0] = %q", batch[0].Value)
	}
	if !errors.Is(batch[1].Err, gdprkv.ErrNotFound) {
		t.Fatalf("batch[1].Err = %v, want ErrNotFound", batch[1].Err)
	}
}

func TestBaselineAndReadOnlyErrors(t *testing.T) {
	bsrv, _ := startServer(t, core.Baseline())
	bc := dial(t, bsrv.Addr())
	err := bc.GPut(ctxb(), "k", []byte("v"), gdprkv.PutOptions{Owner: "o"})
	if !errors.Is(err, gdprkv.ErrBaseline) {
		t.Fatalf("GPUT on baseline store = %v, want ErrBaseline", err)
	}

	psrv, rsrv := startReplicated(t)
	rc := dial(t, rsrv.Addr())
	if err := rc.Set(ctxb(), "k", []byte("v")); !errors.Is(err, gdprkv.ErrReadOnly) {
		t.Fatalf("write on replica = %v, want ErrReadOnly", err)
	}
	// A replica serves no data reads: it names its primary instead.
	var se *gdprkv.ServerError
	if _, err := rc.Get(ctxb(), "k"); !errors.Is(err, gdprkv.ErrMoved) ||
		!errors.As(err, &se) || !strings.HasSuffix(se.Message, " "+psrv.Addr()) {
		t.Fatalf("read on replica = %v, want ErrMoved naming %s", err, psrv.Addr())
	}
}

// --- deadlines ---

// TestDeadServerDoesNotHang dials a black hole — a listener that accepts
// and never replies — and asserts both the context deadline and the
// default I/O timeout bound the call instead of hanging forever.
func TestDeadServerDoesNotHang(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold open, never reply
		}
	}()

	// Context deadline governs when it is the earlier bound.
	ctx, cancel := context.WithTimeout(ctxb(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = gdprkv.Dial(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("dial against a black hole succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("call took %v despite a 200ms context deadline", e)
	}

	// With no context deadline, the default I/O timeout is the floor.
	start = time.Now()
	_, err = gdprkv.Dial(ctxb(), ln.Addr().String(), gdprkv.WithIOTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("dial against a black hole succeeded")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("call took %v despite a 200ms I/O timeout", e)
	}
}

// --- read retries ---

// cutProxy forwards TCP connections to a backend; cut closes every
// connection forwarded so far, as a network fault would.
type cutProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func startCutProxy(t *testing.T, backend string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln}
	t.Cleanup(func() { ln.Close(); p.cut() })
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", backend)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	return p
}

func (p *cutProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestReadRetryOnOwner: a read whose connection to its owner breaks is
// retried on the owner under WithRetry, and surfaces the transport error
// under the default single attempt. A write is never retried. The cluster
// client shares the rule (TestClusterClientReadRetryBudget in
// internal/server).
func TestReadRetryOnOwner(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	px := startCutProxy(t, srv.Addr())
	addr := px.ln.Addr().String()

	c := dial(t, addr, gdprkv.WithPoolSize(1), gdprkv.WithRetry(2, time.Millisecond))
	if err := c.Set(ctxb(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	px.cut()
	if v, err := c.Get(ctxb(), "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after a broken connection under WithRetry(2) = %q, %v", v, err)
	}
	// Writes include Dial's PING.
	if st, want := c.Stats(), (gdprkv.Stats{PrimaryReads: 1, Writes: 2, Retries: 1, Redials: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	px.cut()
	var se *gdprkv.ServerError
	if err := c.Set(ctxb(), "k", []byte("w")); err == nil || errors.As(err, &se) {
		t.Fatalf("Set on a broken connection = %v, want the transport error", err)
	}
	if st, want := c.Stats(), (gdprkv.Stats{PrimaryReads: 1, Writes: 3, Retries: 1, Redials: 2}); st != want {
		t.Fatalf("stats after a failed write = %+v, want %+v (no retry)", st, want)
	}

	def := dial(t, addr, gdprkv.WithPoolSize(1))
	px.cut()
	if _, err := def.Get(ctxb(), "k"); err == nil || errors.As(err, &se) {
		t.Fatalf("default-budget Get on a broken connection = %v, want the transport error", err)
	}
	if st, want := def.Stats(), (gdprkv.Stats{PrimaryReads: 1, Writes: 1, Redials: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// --- pool behaviour ---

// blockOn installs a command hook that parks the named command on a
// channel, keeping its connection busy server-side until released.
// entered receives one token per parked call.
func blockOn(srv *server.Server, cmd, key string) (entered chan struct{}, release func()) {
	block := make(chan struct{})
	entered = make(chan struct{}, 16)
	srv.SetCommandHook(func(name string, args [][]byte, _ resp.Value, _ time.Duration) {
		if name == cmd && len(args) > 0 && string(args[0]) == key {
			entered <- struct{}{}
			<-block
		}
	})
	var once sync.Once
	return entered, func() { once.Do(func() { close(block) }) }
}

func TestPoolExhaustionBlocksUntilCheckinOrCancel(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	entered, release := blockOn(srv, "GET", "slow")
	defer release()

	c := dial(t, srv.Addr(), gdprkv.WithPoolSize(1))
	if err := c.Set(ctxb(), "slow", []byte("x")); err != nil {
		t.Fatal(err)
	}

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Get(ctxb(), "slow") // holds the pool's only conn
		slowDone <- err
	}()
	// Wait until the slow call owns the connection (the server parked it).
	<-entered

	// Exhausted pool: checkout blocks, then honours ctx cancellation.
	ctx, cancel := context.WithTimeout(ctxb(), 150*time.Millisecond)
	defer cancel()
	if _, err := c.Get(ctx, "slow2"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked checkout = %v, want context.DeadlineExceeded", err)
	}

	// A blocked checkout with room to wait proceeds once the conn is
	// checked back in.
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Get(ctxb(), "k2")
		waiterDone <- err
	}()
	release()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
	if err := <-waiterDone; !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("waiter after checkin = %v, want ErrNotFound", err)
	}
}

func TestBrokenConnectionsAreEvictedAndRedialed(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	_, release := blockOn(srv, "GET", "slow")
	defer release()

	c := dial(t, srv.Addr(), gdprkv.WithPoolSize(1))
	if err := c.Set(ctxb(), "slow", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Time out a call mid-flight: its connection is now broken (a late
	// reply would desynchronise the stream) and must be evicted.
	ctx, cancel := context.WithTimeout(ctxb(), 150*time.Millisecond)
	defer cancel()
	if _, err := c.Get(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out call = %v, want context.DeadlineExceeded", err)
	}
	release()

	// The next call transparently redials a fresh connection.
	v, err := c.Get(ctxb(), "slow")
	if err != nil || string(v) != "x" {
		t.Fatalf("call after eviction = %q, %v", v, err)
	}
	if st := c.Stats(); st.Redials == 0 {
		t.Fatalf("stats = %+v, want a recorded redial", st)
	}
}

// --- concurrency guarantee ---

// TestConcurrentClientsDoNotInterleave hammers one shared pooled client
// from many goroutines and asserts every reply matches its request — the
// guarantee the unpooled internal/client could not make. Run with -race.
func TestConcurrentClientsDoNotInterleave(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c := dial(t, srv.Addr(), gdprkv.WithPoolSize(4))

	const goroutines = 8
	const opsEach = 40
	for g := 0; g < goroutines; g++ {
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("g%d:k%d", g, i)
			if err := c.Set(ctxb(), key, []byte(key+":val")); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("g%d:k%d", g, i%4)
				want := key + ":val"
				switch i % 3 {
				case 0:
					v, err := c.Get(ctxb(), key)
					if err != nil || string(v) != want {
						errs <- fmt.Errorf("Get(%s) = %q, %v", key, v, err)
						return
					}
				case 1:
					vs, err := c.MGet(ctxb(), key)
					if err != nil || len(vs) != 1 || string(vs[0]) != want {
						errs <- fmt.Errorf("MGet(%s) = %v, %v", key, vs, err)
						return
					}
				case 2:
					if err := c.Set(ctxb(), key, []byte(want)); err != nil {
						errs <- fmt.Errorf("Set(%s): %v", key, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClosedClientRefusesCalls(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c, err := gdprkv.Dial(ctxb(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Get(ctxb(), "k"); !errors.Is(err, gdprkv.ErrClosed) {
		t.Fatalf("Get on closed client = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}
