package replica

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/resp"
	"gdprstore/internal/store"
	"gdprstore/internal/testutil"
)

// fakeApplier is a minimal replica state machine: enough record semantics
// to assert convergence without importing core (which imports this
// package).
type fakeApplier struct {
	mu      sync.Mutex
	m       map[string]string
	records []string
}

func newFakeApplier() *fakeApplier { return &fakeApplier{m: make(map[string]string)} }

func (f *fakeApplier) ApplyReplicated(name string, args [][]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch name {
	case "SET":
		f.m[string(args[0])] = string(args[1])
	case "SETEX":
		f.m[string(args[0])] = string(args[2])
	case "DEL":
		for _, a := range args {
			delete(f.m, string(a))
		}
	case "FLUSHALL":
		f.m = make(map[string]string)
	}
	f.records = append(f.records, name)
	return nil
}

func (f *fakeApplier) get(k string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	return v, ok
}

func (f *fakeApplier) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// testPrimary wires a raw engine to a hub with a snapshot provider, the
// way core.Store does for the full compliance state.
type testPrimary struct {
	db  *store.DB
	hub *Hub
	// hold, when set before listen, keeps every snapshot from being
	// emitted after its cut until it is closed.
	hold chan struct{}
}

func newTestPrimary(t *testing.T, hub *Hub) *testPrimary {
	t.Helper()
	db := store.New(store.Options{Clock: clock.NewVirtual(time.Unix(0, 0)), Seed: 1})
	db.SetJournal(hub)
	t.Cleanup(hub.Close)
	return &testPrimary{db: db, hub: hub}
}

// snap is the test SnapshotProvider: FLUSHALL + one SET or SETEX per live
// key, with the cut taken first (tests do not write concurrently with
// attachment).
func (p *testPrimary) snap(emit func(name string, args ...[]byte) error, cut func()) error {
	cut()
	if p.hold != nil {
		<-p.hold
	}
	if err := emit("FLUSHALL"); err != nil {
		return err
	}
	return p.db.SnapshotRecords(func(k string, e store.Entry) error {
		if e.Deadline.IsZero() {
			return emit("SET", []byte(k), e.Value)
		}
		return emit("SETEX", []byte(k), store.EncodeDeadline(e.Deadline), e.Value)
	})
}

// listen serves the primary's half of the replication handshake, as the
// server's PSYNC command does: it answers PING, AUTH and REPLCONF, then
// hands PSYNC to Hub.Serve. It returns the address replicas dial.
func (p *testPrimary) listen(t *testing.T) string {
	t.Helper()
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
			go p.handshake(c)
		}
	}()
	return ln.Addr().String()
}

func (p *testPrimary) handshake(c net.Conn) {
	defer c.Close()
	r, w := resp.NewReader(c), resp.NewWriter(c)
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return
		}
		switch strings.ToUpper(string(args[0])) {
		case "PSYNC":
			if replid, offset, err := ParsePSYNCArgs(args[1:]); err == nil {
				p.hub.Serve(c, replid, offset, p.snap)
			}
			return
		case "PING":
			w.WriteValue(resp.SimpleStringValue("PONG"))
		default:
			w.WriteValue(resp.SimpleStringValue("OK"))
		}
		if w.Flush() != nil {
			return
		}
	}
}

func dialNode(t *testing.T, f Applier, addr string, opts NodeOptions) *Node {
	t.Helper()
	if opts.ReconnectMin == 0 {
		opts.ReconnectMin = 5 * time.Millisecond
	}
	if opts.ReconnectMax == 0 {
		opts.ReconnectMax = 50 * time.Millisecond
	}
	n := DialPrimary(f, addr, opts)
	t.Cleanup(n.Close)
	return n
}

func TestFullSyncThenLiveStream(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	p.db.Set("seed", []byte("v0"))
	addr := p.listen(t)
	f := newFakeApplier()
	n := dialNode(t, f, addr, NodeOptions{})

	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("seed")
		return ok
	}, "full sync did not deliver seeded key")

	p.db.Set("live", []byte("v1"))
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		v, ok := f.get("live")
		return ok && v == "v1"
	}, "live stream did not deliver write")

	p.db.Del("seed")
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("seed")
		return !ok
	}, "live stream did not deliver delete")

	st := n.Status()
	if st.FullSyncs != 1 {
		t.Fatalf("full syncs = %d, want 1", st.FullSyncs)
	}
	if st.Link != LinkUp {
		t.Fatalf("link = %s, want up", st.Link)
	}
}

func TestAcksConvergeToMasterOffset(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	addr := p.listen(t)
	f := newFakeApplier()
	dialNode(t, f, addr, NodeOptions{})

	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "replica link not registered")
	for i := 0; i < 50; i++ {
		p.db.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		links := p.hub.Links()
		return len(links) == 1 && links[0].AckOffset == p.hub.Offset()
	}, "ack offset never caught up to master offset")
}

// TestFullSyncAckWaitsForApply: a full-sync link acknowledges nothing until
// the replica has applied the snapshot. While the payload is still being
// built after the cut, the link's ack offset is below the snapshot's; once
// it reaches it, the replica holds what the snapshot carried.
func TestFullSyncAckWaitsForApply(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	p.db.Set("seed", []byte("v0"))
	p.hold = make(chan struct{})
	addr := p.listen(t)
	f := newFakeApplier()
	dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "replica link not registered")
	if l := p.hub.Links()[0]; l.AckOffset >= l.StartOffset {
		t.Fatalf("the link acknowledges offset %d before the snapshot at %d was sent", l.AckOffset, l.StartOffset)
	}
	close(p.hold)
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		links := p.hub.Links()
		return len(links) == 1 && links[0].AckOffset == p.hub.Offset()
	}, "ack offset never reached the snapshot's")
	if v, ok := f.get("seed"); !ok || v != "v0" {
		t.Fatalf("the replica acknowledged the snapshot without holding its key: %q, %v", v, ok)
	}
}

func TestPartialResyncAfterLinkDrop(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	addr := p.listen(t)
	f := newFakeApplier()
	n := dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")
	p.db.Set("before", []byte("1"))
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("before")
		return ok
	}, "pre-drop write")

	p.hub.DisconnectReplicas()
	p.db.Set("during", []byte("2"))
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		v, ok := f.get("during")
		return ok && v == "2"
	}, "write during disconnect never arrived")

	st := n.Status()
	if st.FullSyncs != 1 {
		t.Fatalf("full syncs = %d, want 1 (reconnect should partial-resync)", st.FullSyncs)
	}
	if st.Reconnects == 0 {
		t.Fatal("reconnects not counted")
	}
}

func TestBacklogOverflowFallsBackToFullResync(t *testing.T) {
	p := newTestPrimary(t, newHub(128, DefaultLinkQueue))
	addr := p.listen(t)
	f := newFakeApplier()
	n := dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")

	p.hub.DisconnectReplicas()
	// Push far more than 128 bytes of stream while the link is down.
	for i := 0; i < 100; i++ {
		p.db.Set(fmt.Sprintf("big%03d", i), []byte(strings.Repeat("x", 32)))
	}
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return f.size() >= 100
	}, "replica never reconverged after overflow")
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return n.Status().FullSyncs == 2
	}, "overflowed reconnect should have full-resynced")
}

func TestSlowReplicaIsDisconnectedNotBlocking(t *testing.T) {
	p := newTestPrimary(t, newHub(DefaultBacklogSize, 4))
	addr := p.listen(t)
	f := newFakeApplier()
	dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")

	// A burst beyond the tiny link queue must never block the primary's
	// journal path; the link is killed and resyncs.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			p.db.Set(fmt.Sprintf("burst%03d", i), []byte("v"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("primary write path blocked by slow replica")
	}
	testutil.Eventually(t, 10*time.Second, 0, func() bool {
		v, ok := f.get("burst499")
		return ok && v == "v"
	}, "replica never converged after overflow kill")
}

// An erasure reaches every replica linked to the hub, and only the erased
// key goes. "sync" confirms the erasure the way a primary waiting on its
// replicas would: every link acknowledges the hub's offset, and a node acks
// only what it has applied, so each replica must already be clean. "async"
// confirms nothing and waits for each replica to converge on its own.
func TestErasurePropagatesToAllReplicas(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			p := newTestPrimary(t, NewHub())
			addr := p.listen(t)
			var reps []*fakeApplier
			for i := 0; i < 3; i++ {
				reps = append(reps, newFakeApplier())
				dialNode(t, reps[i], addr, NodeOptions{})
			}
			testutil.Eventually(t, 5*time.Second, 0, func() bool {
				return len(p.hub.Links()) == 3
			}, "replicas not linked")
			p.db.Set("pd:alice", []byte("personal"))
			p.db.Set("pd:bob", []byte("other"))
			p.db.Del("pd:alice")
			clean := func(f *fakeApplier) bool {
				_, alice := f.get("pd:alice")
				_, bob := f.get("pd:bob")
				return !alice && bob
			}
			if mode == "sync" {
				testutil.Eventually(t, 5*time.Second, 0, func() bool {
					for _, l := range p.hub.Links() {
						if l.AckOffset != p.hub.Offset() {
							return false
						}
					}
					return true
				}, "replicas did not acknowledge offset %d", p.hub.Offset())
				for i, f := range reps {
					if !clean(f) {
						t.Fatalf("replica %d acknowledged the erasure but kept the erased key or lost the other", i)
					}
				}
				return
			}
			for i, f := range reps {
				testutil.Eventually(t, 5*time.Second, 0, func() bool { return clean(f) },
					"replica %d kept the erased key or lost the other", i)
			}
		})
	}
}

// The hub is one leg of a journal chain: a single engine mutation reaches
// both the AOF leg and the replicas streaming from the hub.
func TestChainFansOutToAOFAndReplicas(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	addr := p.listen(t)
	f := newFakeApplier()
	dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")
	var logged []string
	fakeAOF := store.JournalFunc(func(name string, args ...[]byte) error {
		logged = append(logged, name)
		return nil
	})
	p.db.SetJournal(store.NewMultiJournal(fakeAOF, p.hub))
	p.db.Set("k", []byte("v"))
	if len(logged) != 1 || logged[0] != "SET" {
		t.Fatalf("AOF leg got %v", logged)
	}
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		v, ok := f.get("k")
		return ok && v == "v"
	}, "replica leg missed the op")
}

// Active expiry deletes through the journal, so a replica loses an expired
// key without running expiry of its own.
func TestExpiryDeletionsReplicate(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	p := &testPrimary{
		db:  store.New(store.Options{Clock: vc, Seed: 1, Strategy: store.ExpiryHeap}),
		hub: NewHub(),
	}
	p.db.SetJournal(p.hub)
	t.Cleanup(p.hub.Close)
	addr := p.listen(t)
	f := newFakeApplier()
	dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")
	p.db.SetEX("short", []byte("v"), time.Minute)
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("short")
		return ok
	}, "write never arrived")
	vc.Advance(2 * time.Minute)
	p.db.ActiveExpireCycle() // journals the DEL
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("short")
		return !ok
	}, "expiry deletion did not reach the replica")
}

// The hub encodes a record before AppendOp returns, so the journal caller
// may reuse its argument buffers at once although links send asynchronously.
func TestAsyncArgBuffersCopied(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	addr := p.listen(t)
	f := newFakeApplier()
	dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")
	buf := []byte("original")
	p.hub.AppendOp("SET", []byte("k"), buf)
	copy(buf, "CLOBBER!")
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("k")
		return ok
	}, "write never arrived")
	if v, _ := f.get("k"); v != "original" {
		t.Fatalf("replica saw the reused buffer: %q", v)
	}
}

// Closing a node stops the stream into its replica, which keeps what it had
// applied (ready for promotion), and the hub drops the link.
func TestDetachStopsStreaming(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	addr := p.listen(t)
	f := newFakeApplier()
	n := dialNode(t, f, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")
	p.db.Set("a", []byte("1"))
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("a")
		return ok
	}, "write never arrived")
	n.Close()
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 0
	}, "the hub kept the closed link")
	p.db.Set("b", []byte("2"))
	if _, ok := f.get("b"); ok {
		t.Fatal("closed node still receiving")
	}
	if _, ok := f.get("a"); !ok || n.Status().Link != LinkDown {
		t.Fatalf("closed node lost its data or is not down: %v", n.Status().Link)
	}
}

// rejecting is a replica that cannot apply GARBAGE-OP.
type rejecting struct{ *fakeApplier }

func (r rejecting) ApplyReplicated(name string, args [][]byte) error {
	if name == "GARBAGE-OP" {
		return fmt.Errorf("unknown record %s", name)
	}
	return r.fakeApplier.ApplyReplicated(name, args)
}

// A record the replica cannot apply is never acknowledged: the link drops
// with the error in LastErr, and the reconnect full-resyncs from a snapshot
// instead of replaying the record from the backlog, so the records after it
// still arrive.
func TestReplicaLastErrSurfacesBadOps(t *testing.T) {
	p := newTestPrimary(t, NewHub())
	addr := p.listen(t)
	f := newFakeApplier()
	n := dialNode(t, rejecting{f}, addr, NodeOptions{})
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		return len(p.hub.Links()) == 1
	}, "initial attach")
	p.hub.AppendOp("GARBAGE-OP")
	p.db.Set("after", []byte("v"))
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		_, ok := f.get("after")
		return ok && n.Status().FullSyncs == 2
	}, "no full resync delivered the record after the bad one")
	if st := n.Status(); st.LastErr == nil || st.Reconnects < 1 {
		t.Fatalf("bad record: LastErr %v, reconnects %d; want the error and a new link", st.LastErr, st.Reconnects)
	}
}

func TestEncodeRecordRoundTripsOffsets(t *testing.T) {
	// Primary and replica must agree on record length byte-for-byte —
	// offsets depend on it.
	rec := EncodeRecord("SETEX", []byte("k"), []byte("2020-01-01T00:00:00Z"), []byte("v"))
	want := "*4\r\n$5\r\nSETEX\r\n$1\r\nk\r\n$20\r\n2020-01-01T00:00:00Z\r\n$1\r\nv\r\n"
	if string(rec) != want {
		t.Fatalf("encoding changed:\n got %q\nwant %q", rec, want)
	}
}

func TestParsePSYNCArgs(t *testing.T) {
	id, off, err := ParsePSYNCArgs([][]byte{[]byte("?"), []byte("-1")})
	if err != nil || id != "?" || off != -1 {
		t.Fatalf("got %q %d %v", id, off, err)
	}
	if _, _, err := ParsePSYNCArgs([][]byte{[]byte("x")}); err == nil {
		t.Fatal("short args accepted")
	}
	if _, _, err := ParsePSYNCArgs([][]byte{[]byte("x"), []byte("nope")}); err == nil {
		t.Fatal("bad offset accepted")
	}
}
