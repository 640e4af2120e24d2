package gdprkv_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/pkg/gdprkv"
)

// --- explicit pipelining ---

func TestPipelineBasicPositionalResults(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c := dial(t, srv.Addr())

	p := c.Pipeline()
	p.Set("a", []byte("1")).Set("b", []byte("2")).Get("a").Get("b").
		Del("a").TTL("b").Get("a")
	if p.Len() != 7 {
		t.Fatalf("Len = %d, want 7", p.Len())
	}
	res, err := p.Exec(ctxb())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("len(res) = %d, want 7", len(res))
	}
	if v, err := res[2].Bytes(); err != nil || string(v) != "1" {
		t.Fatalf("res[2] = %q, %v", v, err)
	}
	if v, err := res[3].Bytes(); err != nil || string(v) != "2" {
		t.Fatalf("res[3] = %q, %v", v, err)
	}
	if n, err := res[4].Int(); err != nil || n != 1 {
		t.Fatalf("res[4] DEL = %d, %v", n, err)
	}
	if n, err := res[5].Int(); err != nil || n != -1 {
		t.Fatalf("res[5] TTL = %d, %v", n, err)
	}
	// The deleted key reads as a miss, in its own slot.
	if !errors.Is(res[6].Err, gdprkv.ErrNotFound) {
		t.Fatalf("res[6].Err = %v, want ErrNotFound", res[6].Err)
	}
	// Exec drained the queue; the pipeline is reusable.
	if p.Len() != 0 {
		t.Fatalf("Len after Exec = %d, want 0", p.Len())
	}
	if res, err := p.Exec(ctxb()); err != nil || res != nil {
		t.Fatalf("empty Exec = %v, %v; want nil, nil", res, err)
	}
	st := c.Stats()
	if st.PipelineExecs != 1 || st.PipelineOps != 7 {
		t.Fatalf("stats execs=%d ops=%d, want 1/7", st.PipelineExecs, st.PipelineOps)
	}
}

// TestPipelineErrorInMiddleKeepsLaterReplies is the desync test: an error
// reply mid-pipeline must occupy exactly its own slot, with every later
// reply still mapped to the right command.
func TestPipelineErrorInMiddleKeepsLaterReplies(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c := dial(t, srv.Addr())

	res, err := c.Pipeline().
		Set("k1", []byte("v1")).
		Do("BOGUSCMD", "x"). // -ERR unknown command
		Get("missing").      // null -> ErrNotFound
		Do("EXPIRE", "k1").  // -ERR wrong number of arguments
		Get("k1").           // must still be v1, in slot 4
		Exec(ctxb())
	if err != nil {
		t.Fatalf("Exec returned transport error %v for server-side error replies", err)
	}
	if res[0].Err != nil {
		t.Fatalf("res[0].Err = %v", res[0].Err)
	}
	var se *gdprkv.ServerError
	if res[1].Err == nil || !errors.As(res[1].Err, &se) {
		t.Fatalf("res[1].Err = %v, want *ServerError", res[1].Err)
	}
	if !errors.Is(res[2].Err, gdprkv.ErrNotFound) {
		t.Fatalf("res[2].Err = %v, want ErrNotFound", res[2].Err)
	}
	if res[3].Err == nil {
		t.Fatal("res[3].Err = nil, want arity error")
	}
	if v, err := res[4].Bytes(); err != nil || string(v) != "v1" {
		t.Fatalf("res[4] = %q, %v — replies desynced after mid-pipeline errors", v, err)
	}
}

// stallServer answers exactly one command per connection (the dial-time
// PING) with +PONG, then swallows everything: commands written after that
// are read and never answered.
func stallServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 4096)
				if _, err := conn.Read(buf); err != nil {
					return
				}
				conn.Write([]byte("+PONG\r\n"))
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestPipelineCancelledExecDiscardsConn cancels an Exec after its commands
// were written but before the replies arrive. The connection now has
// replies in flight that nobody will read — reusing it would desync every
// later caller — so the pool must discard it and redial.
func TestPipelineCancelledExecDiscardsConn(t *testing.T) {
	ln := stallServer(t)
	c := dial(t, ln.Addr().String(), gdprkv.WithPoolSize(1))

	ctx, cancel := context.WithTimeout(ctxb(), 150*time.Millisecond)
	defer cancel()
	res, err := c.Pipeline().Get("a").Get("b").Exec(ctx)
	if err == nil {
		t.Fatal("Exec against a stalled server succeeded")
	}
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("res[%d].Err = nil after abandoned exchange", i)
		}
	}

	// The next call must not inherit the abandoned connection: with pool
	// size 1, a reuse would read the stalled exchange's dead air. A redial
	// gets a fresh conn whose one free +PONG answers the ping.
	pingCtx, pingCancel := context.WithTimeout(ctxb(), 2*time.Second)
	defer pingCancel()
	if err := c.Ping(pingCtx); err != nil {
		t.Fatalf("ping after abandoned pipeline: %v (broken conn reused?)", err)
	}
	if st := c.Stats(); st.Redials == 0 {
		t.Fatal("no redial recorded: the abandoned conn was returned to the pool")
	}
}

// --- implicit micro-batching ---

func TestAutoBatchCoalescesAndPreservesPerCallResults(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c := dial(t, srv.Addr(), gdprkv.WithAutoBatch(2*time.Millisecond, 16))

	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Set(ctxb(), fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Set %d: %v", i, err)
		}
	}

	got := make([][]byte, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Get(ctxb(), fmt.Sprintf("k%02d", i))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || string(got[i]) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("Get %d = %q, %v — coalesced reply misrouted", i, got[i], errs[i])
		}
	}

	// A missing key still reports its own ErrNotFound through the batch.
	if _, err := c.Get(ctxb(), "nope"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}

	st := c.Stats()
	if st.AutoBatchOps < 2*n {
		t.Fatalf("AutoBatchOps = %d, want >= %d", st.AutoBatchOps, 2*n)
	}
	if st.AutoBatchFlushes >= st.AutoBatchOps {
		t.Fatalf("flushes=%d ops=%d: nothing coalesced", st.AutoBatchFlushes, st.AutoBatchOps)
	}
}

func TestAutoBatchGDPRPathAndOptionIsolation(t *testing.T) {
	srv, st := startServer(t, core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true})
	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	st.ACL().AddPrincipal(acl.Principal{ID: "alice", Role: acl.RoleSubject})
	st.ACL().AddPrincipal(acl.Principal{ID: "bob", Role: acl.RoleSubject})
	c := dial(t, srv.Addr(),
		gdprkv.WithActor("controller"), gdprkv.WithPurpose("service"),
		gdprkv.WithAutoBatch(2*time.Millisecond, 16))

	// Distinct option sets written concurrently: coalescing must not leak
	// one group's metadata onto another's records. The third owner spells
	// out the first set's remaining tokens, so option sets joined with a
	// separator byte would share one group and one GMPUT's metadata.
	groups := map[string]gdprkv.PutOptions{
		"a": {Owner: "alice", Purposes: []string{"service"}},
		"b": {Owner: "bob", Purposes: []string{"service"}},
		"c": {Owner: "alice\x1fPURPOSES\x1fservice"},
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for prefix, opts := range groups {
			key, opts := fmt.Sprintf("%s%d", prefix, i), opts
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.GPut(ctxb(), key, []byte(strings.ToUpper(key[:1])), opts); err != nil {
					t.Errorf("GPut %s: %v", key, err)
				}
			}()
		}
	}
	wg.Wait()

	// Right-of-access per owner proves no record carried another group's
	// metadata: a cross-coalesced GPut would file a's record under bob
	// (or vice versa).
	for prefix, opts := range groups {
		recs, err := c.GetUser(ctxb(), opts.Owner)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 8 {
			t.Fatalf("%q owns %d records, want 8 — option sets cross-coalesced", opts.Owner, len(recs))
		}
		for i := 0; i < 8; i++ {
			if _, ok := recs[fmt.Sprintf("%s%d", prefix, i)]; !ok {
				t.Fatalf("%q missing record %s%d", opts.Owner, prefix, i)
			}
		}
	}

	// GGet rides the coalesced path too.
	v, err := c.GGet(ctxb(), "a0")
	if err != nil || string(v) != "A" {
		t.Fatalf("GGet a0 = %q, %v", v, err)
	}
}

// TestAutoBatchCancelOneWaiterKeepsBatchAlive cancels one caller while its
// batch is still collecting: that caller gets its ctx error immediately,
// the batch still flushes, and the other caller gets its value.
func TestAutoBatchCancelOneWaiterKeepsBatchAlive(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c := dial(t, srv.Addr())
	if err := c.Set(ctxb(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cb := dial(t, srv.Addr(), gdprkv.WithAutoBatch(80*time.Millisecond, 64))

	cancelled, cancel := context.WithCancel(ctxb())
	var wg sync.WaitGroup
	var err1, err2 error
	var v2 []byte
	wg.Add(2)
	go func() { defer wg.Done(); _, err1 = cb.Get(cancelled, "k") }()
	go func() { defer wg.Done(); v2, err2 = cb.Get(ctxb(), "k") }()
	time.Sleep(20 * time.Millisecond) // both enqueued, window still open
	cancel()
	wg.Wait()
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err1)
	}
	if err2 != nil || string(v2) != "v" {
		t.Fatalf("surviving waiter = %q, %v — one cancellation failed the batch", v2, err2)
	}
}

// TestAutoBatchCloseFlushesAcceptedWrites proves a write accepted before
// Close is on the server after Close returns, even when its window never
// fired.
func TestAutoBatchCloseFlushesAcceptedWrites(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	cb := dial(t, srv.Addr(), gdprkv.WithAutoBatch(time.Hour, 1<<20))

	var setErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); setErr = cb.Set(ctxb(), "pending", []byte("flushed")) }()
	// Wait until the op is queued (the waiter blocks on the 1h window).
	deadline := time.Now().Add(2 * time.Second)
	for cb.Stats().AutoBatchOps == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := cb.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if setErr != nil {
		t.Fatalf("Set accepted before Close failed: %v", setErr)
	}

	c := dial(t, srv.Addr())
	v, err := c.Get(ctxb(), "pending")
	if err != nil || string(v) != "flushed" {
		t.Fatalf("Get after Close = %q, %v — accepted write was dropped", v, err)
	}
	// Post-close calls are refused, not queued forever.
	if err := cb.Set(ctxb(), "late", nil); !errors.Is(err, gdprkv.ErrClosed) {
		t.Fatalf("Set after Close = %v, want ErrClosed", err)
	}
}

// TestAutoBatchRaceStress hammers one coalescing client from many
// goroutines; run with -race this is the batcher's memory-model check.
func TestAutoBatchRaceStress(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	c := dial(t, srv.Addr(), gdprkv.WithAutoBatch(200*time.Microsecond, 8))

	const workers, rounds = 16, 40
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%02d", w)
			for r := 0; r < rounds; r++ {
				want := []byte(fmt.Sprintf("%d:%d", w, r))
				if err := c.Set(ctxb(), key, want); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				got, err := c.Get(ctxb(), key)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("get %s = %q, %v; want %q", key, got, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
