package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
	"gdprstore/internal/testutil"
	"gdprstore/pkg/gdprkv"
)

// Tests of the peer link: every server-to-server call (the RESTOREKEY
// pipelines of a slot migration) rides one pooled SDK client per peer
// address, with the caller's identity set on every call.

// subjectsOn returns n owners whose slots are n distinct slots of nodeID.
func subjectsOn(t *testing.T, m *cluster.Map, nodeID string, n int) []string {
	t.Helper()
	var out []string
	used := map[uint16]bool{}
	for i := 0; len(out) < n && i < 100000; i++ {
		o := fmt.Sprintf("owner%05d", i)
		if slot := cluster.Slot(o); m.NodeForKey(o).ID == nodeID && !used[slot] {
			used[slot] = true
			out = append(out, o)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d owners on distinct slots of %s, want %d", len(out), nodeID, n)
	}
	return out
}

// stageMigration writes records records of owner through src, in the
// owner's slot, then marks that slot IMPORTING (from n1) through dst and
// MIGRATING (to n2) through src. It returns the slot as a CLUSTER argument.
func stageMigration(t *testing.T, src, dst *gdprkv.Client, owner string, records int) string {
	t.Helper()
	ctx := context.Background()
	ss := strconv.Itoa(int(cluster.Slot(owner)))
	for i := 0; i < records; i += 250 {
		p := src.Pipeline()
		for j := i; j < min(i+250, records); j++ {
			p.GPut(fmt.Sprintf("pd:{%s}:%d", owner, j), []byte("v"), gdprkv.PutOptions{
				Owner: owner, Purposes: []string{"service"}})
		}
		res, err := p.Exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestClusterPeerIdentityPerCall: a pooled peer connection never carries
// an earlier caller's actor or purpose to the peer.
func TestClusterPeerIdentityPerCall(t *testing.T) {
	srvs, stores, m := startCluster(t, 2)
	ctx := context.Background()
	for _, st := range stores {
		st.ACL().SetEnforce(true)
		st.ACL().AddPrincipal(acl.Principal{ID: "admin", Role: acl.RoleController})
	}
	stores[0].ACL().AddPrincipal(acl.Principal{ID: "x", Role: acl.RoleController})
	admin := func(addr string) *gdprkv.Client {
		c := nodeClient(t, addr)
		for _, cmd := range [][]string{{"AUTH", "admin"}, {"PURPOSE", "service"}} {
			if _, err := c.Do(ctx, cmd...); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	src, dst := admin(srvs[0].Addr()), admin(srvs[1].Addr())
	owners := subjectsOn(t, m, "n1", 6)
	n1 := nodeClient(t, srvs[0].Addr())
	run := func(actor, purpose string) error {
		t.Helper()
		ss := stageMigration(t, src, dst, owners[0], 1)
		owners = owners[1:]
		for _, cmd := range [][]string{{"AUTH", actor}, {"PURPOSE", purpose}} {
			if _, err := n1.Do(ctx, cmd...); err != nil {
				t.Fatal(err)
			}
		}
		_, err := n1.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
		return err
	}

	// The admin's migration pools a connection to n2; x, unknown there,
	// must be refused on it rather than served as the admin.
	if err := run("admin", "billing"); err != nil {
		t.Fatalf("admin migration: %v", err)
	}
	if err := run("x", "billing"); err == nil || !strings.Contains(err.Error(), "n2") ||
		!strings.Contains(err.Error(), "DENIED") {
		t.Fatalf("migration as x = %v, want a refusal naming n2 (DENIED there)", err)
	}
	// An empty actor is an identity too: with n1 open, the call reaches
	// n2 as nobody, not as the admin before it.
	if err := run("admin", "billing"); err != nil {
		t.Fatalf("admin migration: %v", err)
	}
	stores[0].ACL().SetEnforce(false)
	if err := run("", "billing"); err == nil || !strings.Contains(err.Error(), "DENIED") {
		t.Fatalf("migration with no actor = %v, want DENIED on n2", err)
	}
	stores[0].ACL().SetEnforce(true)

	// Each call's own purpose, an empty one included, reaches n2's trail.
	for _, purpose := range []string{"billing", ""} {
		if err := run("admin", purpose); err != nil {
			t.Fatalf("admin migration with purpose %q: %v", purpose, err)
		}
	}
	recs, err := stores[1].Trail().Query(audit.Filter{Actor: "admin", Op: "RESTOREKEY"})
	if err != nil {
		t.Fatal(err)
	}
	var purposes []string
	for _, r := range recs {
		purposes = append(purposes, r.Purpose)
	}
	if got := strings.Join(purposes, ","); !strings.HasSuffix(got, ",billing,") {
		t.Fatalf("n2 trail purposes for admin = %q, want the last two calls' billing then empty", got)
	}
}

// forwarder is a counting TCP proxy: it relays every connection to target
// and counts the connections it accepted and those still open. cut closes
// every relayed connection, as a network fault would.
type forwarder struct {
	ln             net.Listener
	target         string
	accepted, open atomic.Int64
	mu             sync.Mutex
	live           map[net.Conn]struct{}
}

func newForwarder(t *testing.T, target string) *forwarder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &forwarder{ln: ln, target: target, live: map[net.Conn]struct{}{}}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			f.open.Add(1)
			go f.relay(c)
		}
	}()
	return f
}

func (f *forwarder) addr() string { return f.ln.Addr().String() }

func (f *forwarder) cut() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.live {
		c.Close()
	}
}

// relay pipes c to a fresh upstream connection until either side closes,
// then closes both.
func (f *forwarder) relay(c net.Conn) {
	defer f.open.Add(-1)
	defer c.Close()
	f.mu.Lock()
	f.live[c] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.live, c)
		f.mu.Unlock()
	}()
	up, err := net.Dial("tcp", f.target)
	if err != nil {
		return
	}
	defer up.Close()
	var once sync.Once
	done := make(chan struct{})
	pipe := func(dst, src net.Conn) {
		io.Copy(dst, src)
		once.Do(func() { close(done) })
	}
	go pipe(up, c)
	go pipe(c, up)
	<-done
}

// peerViaForwarder points n1's map entry for n2 at a counting forwarder
// to n2, and returns the forwarder.
func peerViaForwarder(t *testing.T, srvs []*Server, m *cluster.Map) *forwarder {
	t.Helper()
	fwd := newForwarder(t, srvs[1].Addr())
	nodes := m.Nodes()
	for i := range nodes {
		if nodes[i].ID == "n2" {
			nodes[i].Addr = fwd.addr()
		}
	}
	viaFwd, err := cluster.NewMap(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := srvs[0].EnableCluster(ClusterConfig{Self: "n1", Map: viaFwd}); err != nil {
		t.Fatal(err)
	}
	return fwd
}

// TestClusterPeerConnectionsReused points n1's map entry for n2 at a
// counting forwarder: a slot migration and a run of further ones reuse the
// pooled connections, a restarted peer is redialed, and closing n1 closes
// its connections to the peer.
func TestClusterPeerConnectionsReused(t *testing.T) {
	srvs, stores, m := startCluster(t, 2)
	ctx := context.Background()
	fwd := peerViaForwarder(t, srvs, m)
	owners := subjectsOn(t, m, "n1", 7)
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	migrate := func(records int) error {
		ss := stageMigration(t, src, dst, owners[0], records)
		owners = owners[1:]
		mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
		if err == nil && mv.Int != int64(records) {
			err = fmt.Errorf("moved %d records, want %d", mv.Int, records)
		}
		return err
	}

	// Migrate a slot of 2 000 records from n1 to n2.
	const records = 2000
	start := time.Now()
	if err := migrate(records); err != nil {
		t.Fatalf("MIGRATESLOT: %v", err)
	}
	t.Logf("MIGRATESLOT of %d records: %d connections at the destination, %v", records, fwd.accepted.Load(), time.Since(start))
	if n := fwd.accepted.Load(); n > gdprkv.DefaultPoolSize {
		t.Fatalf("MIGRATESLOT opened %d connections at the destination, want at most %d", n, gdprkv.DefaultPoolSize)
	}
	if got := stores[1].Engine().Len(); got < records {
		t.Fatalf("destination holds %d keys, want %d", got, records)
	}

	// Warm: further migrations open no further connections.
	warm := fwd.accepted.Load()
	for i := 0; i < 5; i++ {
		if err := migrate(1); err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
	}
	if n := fwd.accepted.Load() - warm; n != 0 {
		t.Fatalf("5 warm migrations opened %d connections, want 0", n)
	}

	// A peer restarted on the same address is redialed on the next call.
	addr := srvs[1].Addr()
	srvs[1].Close()
	restarted, err := Listen(addr, stores[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	if err := restarted.EnableCluster(ClusterConfig{Self: "n2", Map: m}); err != nil {
		t.Fatal(err)
	}
	dst = nodeClient(t, addr)
	if err := migrate(1); err != nil {
		t.Fatalf("migration after the peer restarted: %v", err)
	}
	if fwd.accepted.Load() == warm {
		t.Fatal("the restarted peer was not redialed")
	}

	// Closing the source closes every connection it held to the peer.
	srvs[0].Close()
	testutil.Eventually(t, 5*time.Second, 0, func() bool { return fwd.open.Load() == 0 },
		"source connections still open at the peer after Server.Close")
}

// TestClusterPeerConcurrentFirstDial races the first calls to a peer, the
// migrations of eight slots: every racing dial but one closes its client,
// so the peer ends up holding at most one pool's worth of the source's
// connections.
func TestClusterPeerConcurrentFirstDial(t *testing.T) {
	srvs, _, m := startCluster(t, 2)
	fwd := peerViaForwarder(t, srvs, m)
	const callers = 8
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	slots := make([]string, 0, callers)
	for _, owner := range subjectsOn(t, m, "n1", callers) {
		slots = append(slots, stageMigration(t, src, dst, owner, 1))
	}
	var wg sync.WaitGroup
	for _, ss := range slots {
		wg.Add(1)
		go func(c *gdprkv.Client, ss string) {
			defer wg.Done()
			if _, err := c.Do(context.Background(), "CLUSTER", "MIGRATESLOT", ss); err != nil {
				t.Errorf("concurrent migration: %v", err)
			}
		}(nodeClient(t, srvs[0].Addr()), ss)
	}
	wg.Wait()
	testutil.Eventually(t, 5*time.Second, 0, func() bool { return fwd.open.Load() <= gdprkv.DefaultPoolSize },
		"the losers of the racing dials kept their connections open")
}
