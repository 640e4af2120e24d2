package gdprkv_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
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

// cluster is a primary with two attached read replicas.
type cluster struct {
	psrv   *server.Server
	pst    *core.Store
	rsrvs  []*server.Server
	rstors []*core.Store
}

func (c *cluster) replicaAddrs() []string {
	out := make([]string, len(c.rsrvs))
	for i, s := range c.rsrvs {
		out[i] = s.Addr()
	}
	return out
}

// startCluster boots a compliant primary and n replicas attached over
// real TCP (REPLCONF/PSYNC handshake, full sync, live stream).
func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	cfg := core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true}
	psrv, pst := startServer(t, cfg)
	c := &cluster{psrv: psrv, pst: pst}
	for i := 0; i < n; i++ {
		rsrv, rst := startServer(t, cfg)
		rsrv.ReplicaOf(psrv.Addr(), replica.NodeOptions{})
		c.rsrvs = append(c.rsrvs, rsrv)
		c.rstors = append(c.rstors, rst)
	}
	for _, rsrv := range c.rsrvs {
		rsrv := rsrv
		testutil.Eventually(t, wait, 0, func() bool {
			nd := rsrv.ReplNode()
			return nd != nil && nd.Status().Link == replica.LinkUp
		}, "replica link never came up")
	}
	return c
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

	// Missing key → ErrNotFound, through GGet and Get alike.
	if _, err := app.GGet(ctxb(), "absent"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("GGet(absent) = %v, want ErrNotFound", err)
	}
	if _, err := app.Get(ctxb(), "absent"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
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

	c := startCluster(t, 1)
	rc := dial(t, c.rsrvs[0].Addr())
	if err := rc.Set(ctxb(), "k", []byte("v")); !errors.Is(err, gdprkv.ErrReadOnly) {
		t.Fatalf("write on replica = %v, want ErrReadOnly", err)
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

// --- replica-aware routing ---

// ggetCalls parses cmdstat_<name>:calls=N from a node's INFO commandstats.
func cmdCalls(t *testing.T, addr, cmd string) int {
	t.Helper()
	c := dial(t, addr)
	info, err := c.Info(ctxb(), "commandstats")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(info, "\r\n") {
		if rest, ok := strings.CutPrefix(line, "cmdstat_"+cmd+":calls="); ok {
			n, err := strconv.Atoi(strings.SplitN(rest, ",", 2)[0])
			if err != nil {
				t.Fatalf("bad commandstats line %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

func TestReplicaRoutingServesReadsFromReplicas(t *testing.T) {
	cl := startCluster(t, 2)
	c := dial(t, cl.psrv.Addr(),
		gdprkv.WithPoolSize(2), gdprkv.WithReplicas(cl.replicaAddrs()...))

	// Writes and rights operations go to the primary.
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("user:alice:doc%d", i)
		if err := c.GPut(ctxb(), key, []byte("v"+strconv.Itoa(i)),
			gdprkv.PutOptions{Owner: "alice", Purposes: []string{"svc"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, rst := range cl.rstors {
		rst := rst
		testutil.Eventually(t, wait, 0, func() bool {
			return rst.Engine().Exists("user:alice:doc3")
		}, "write did not replicate")
	}

	// Reads load-balance across the replicas, never touching the primary.
	const reads = 10
	for i := 0; i < reads; i++ {
		v, err := c.GGet(ctxb(), fmt.Sprintf("user:alice:doc%d", i%4))
		if err != nil {
			t.Fatal(err)
		}
		if want := "v" + strconv.Itoa(i%4); string(v) != want {
			t.Fatalf("GGet = %q, want %q", v, want)
		}
	}

	// Per-node INFO counters prove where each command ran.
	if n := cmdCalls(t, cl.psrv.Addr(), "gget"); n != 0 {
		t.Fatalf("primary served %d GGETs, want 0", n)
	}
	r0 := cmdCalls(t, cl.rsrvs[0].Addr(), "gget")
	r1 := cmdCalls(t, cl.rsrvs[1].Addr(), "gget")
	if r0+r1 != reads {
		t.Fatalf("replicas served %d+%d GGETs, want %d", r0, r1, reads)
	}
	if r0 == 0 || r1 == 0 {
		t.Fatalf("round robin skipped a replica: %d / %d", r0, r1)
	}
	if n := cmdCalls(t, cl.psrv.Addr(), "gput"); n != 4 {
		t.Fatalf("primary served %d GPUTs, want 4", n)
	}
	for i, rsrv := range cl.rsrvs {
		if n := cmdCalls(t, rsrv.Addr(), "gput"); n != 0 {
			t.Fatalf("replica %d served %d GPUTs, want 0", i, n)
		}
	}

	// FORGETUSER is a rights operation: primary only, and the erasure
	// still reaches every replica through the stream.
	if n, err := c.ForgetUser(ctxb(), "alice"); err != nil || n != 4 {
		t.Fatalf("ForgetUser = %d, %v", n, err)
	}
	if n := cmdCalls(t, cl.psrv.Addr(), "forgetuser"); n != 1 {
		t.Fatalf("primary served %d FORGETUSERs, want 1", n)
	}
	for _, rst := range cl.rstors {
		rst := rst
		testutil.Eventually(t, wait, 0, func() bool {
			return !rst.Engine().Exists("user:alice:doc0")
		}, "erasure did not reach a replica")
	}

	st := c.Stats()
	if st.ReplicaReads != reads || st.PrimaryReads != 0 {
		t.Fatalf("stats = %+v, want %d replica reads and 0 primary reads", st, reads)
	}
	// The whole counter set is pinned: Dial's PING, 4 GPUTs and 1
	// FORGETUSER on the primary path, every read on a replica, nothing
	// retried or redialed.
	if want := (gdprkv.Stats{ReplicaReads: reads, Writes: 6}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestScanPinsToOneNode asserts a client's whole Scan iteration runs on
// a single node: cursors are positions into one node's sorted keyspace
// and are not portable between nodes under replication lag.
func TestScanPinsToOneNode(t *testing.T) {
	cl := startCluster(t, 2)
	c := dial(t, cl.psrv.Addr(), gdprkv.WithReplicas(cl.replicaAddrs()...))
	for i := 0; i < 8; i++ {
		if err := c.Set(ctxb(), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, rst := range cl.rstors {
		rst := rst
		testutil.Eventually(t, wait, 0, func() bool { return rst.Engine().Exists("k7") }, "replication")
	}

	var keys []string
	cursor := uint64(0)
	for {
		page, next, err := c.Scan(ctxb(), cursor, "k*", 3)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, page...)
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(keys) < 8 {
		t.Fatalf("scan returned %d keys, want >= 8", len(keys))
	}
	// Every SCAN call landed on the pinned replica; none leaked to the
	// other replica or the primary mid-iteration.
	if n := cmdCalls(t, cl.rsrvs[0].Addr(), "scan"); n < 3 {
		t.Fatalf("pinned replica served %d SCANs, want the whole iteration (>= 3)", n)
	}
	if n := cmdCalls(t, cl.rsrvs[1].Addr(), "scan"); n != 0 {
		t.Fatalf("second replica served %d SCANs, want 0", n)
	}
	if n := cmdCalls(t, cl.psrv.Addr(), "scan"); n != 0 {
		t.Fatalf("primary served %d SCANs, want 0", n)
	}
	if st, want := c.Stats(), (gdprkv.Stats{ReplicaReads: 3, Writes: 9}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestReplicaRoutingFallsBackToPrimary(t *testing.T) {
	srv, _ := startServer(t, core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true})

	// Two dead replica addresses: ports that were live once and closed.
	dead := make([]string, 2)
	for i := range dead {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead[i] = ln.Addr().String()
		ln.Close()
	}

	c := dial(t, srv.Addr(), gdprkv.WithReplicas(dead...),
		gdprkv.WithRetry(3, time.Millisecond))
	if err := c.Set(ctxb(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctxb(), "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get through fallback = %q, %v", v, err)
	}
	st := c.Stats()
	if st.PrimaryReads == 0 {
		t.Fatalf("stats = %+v, want primary fallback reads", st)
	}
	if st.Retries == 0 {
		t.Fatalf("stats = %+v, want recorded retries", st)
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
	cl := startCluster(t, 2)
	c := dial(t, cl.psrv.Addr(),
		gdprkv.WithPoolSize(4), gdprkv.WithReplicas(cl.replicaAddrs()...))

	const goroutines = 8
	const opsEach = 40
	// Seed the dataset and let it replicate so replica-routed reads hit.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("g%d:k%d", g, i)
			if err := c.Set(ctxb(), key, []byte(key+":val")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rst := range cl.rstors {
		rst := rst
		testutil.Eventually(t, wait, 0, func() bool {
			return rst.Engine().Exists(fmt.Sprintf("g%d:k%d", goroutines-1, 3))
		}, "seed data did not replicate")
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
