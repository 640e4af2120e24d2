package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
	"gdprstore/internal/core"
	"gdprstore/internal/replica"
	"gdprstore/internal/store"
	"gdprstore/internal/testutil"
	"gdprstore/pkg/gdprkv"
)

const replWait = 10 * time.Second

// replPair is a primary and a replica server attached over real TCP.
type replPair struct {
	pst, rst *core.Store
	psrv     *Server
	rsrv     *Server
	pcl, rcl *tclient
	clk      *clock.Virtual
}

// startReplPair boots a compliant primary and an empty replica server and
// attaches the replica over TCP via REPLICAOF. Both stores share one
// virtual clock so retention behaviour is deterministic.
func startReplPair(t *testing.T) *replPair {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	cfg := core.Config{
		Compliant:    true,
		Capability:   core.CapabilityPartial,
		AuditEnabled: true,
		Clock:        clk,
	}
	pst, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pst.Close() })
	rst, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rst.Close() })

	psrv, err := Listen("127.0.0.1:0", pst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { psrv.Close() })
	rsrv, err := Listen("127.0.0.1:0", rst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Close() })

	pcl := tdial(t, psrv.Addr())
	rcl := tdial(t, rsrv.Addr())

	host, port, err := net.SplitHostPort(psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := rcl.ReplicaOf(host, port); err != nil {
		t.Fatal(err)
	}
	return &replPair{pst: pst, rst: rst, psrv: psrv, rsrv: rsrv, pcl: pcl, rcl: rcl, clk: clk}
}

// waitLinkUp blocks until the replica's link reports up.
func (p *replPair) waitLinkUp(t *testing.T) {
	t.Helper()
	testutil.Eventually(t, replWait, 0, func() bool {
		n := p.rsrv.ReplNode()
		return n != nil && n.Status().Link == replica.LinkUp
	}, "replica link never came up")
}

func TestReplicationEndToEnd(t *testing.T) {
	p := startReplPair(t)

	// Data written before the replica attaches arrives via full sync...
	if err := p.pcl.GPut("user:alice:profile", []byte("alice-data"),
		gdprkv.PutOptions{Owner: "alice", Purposes: []string{"ads"}}); err != nil {
		t.Fatal(err)
	}
	p.waitLinkUp(t)
	testutil.Eventually(t, replWait, 0, func() bool {
		v, err := p.rst.Get(core.Ctx{}, "user:alice:profile")
		return err == nil && string(v) == "alice-data"
	}, "full sync did not deliver pre-attach write")

	// ...and data written after it arrives via the live stream, metadata
	// included.
	if err := p.pcl.GPut("user:bob:profile", []byte("bob-data"),
		gdprkv.PutOptions{Owner: "bob", Purposes: []string{"ads"}}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		v, err := p.rst.Get(core.Ctx{}, "user:bob:profile")
		return err == nil && string(v) == "bob-data"
	}, "live stream did not deliver post-attach write")
	testutil.Eventually(t, replWait, 0, func() bool {
		m, err := p.rst.Metadata(core.Ctx{}, "user:bob:profile")
		return err == nil && m.Owner == "bob"
	}, "metadata did not replicate")

	// FORGETUSER on the primary erases the subject's keys, metadata, and
	// leaves an audit record on the replica.
	if n, err := p.pcl.ForgetUser("alice"); err != nil || n != 1 {
		t.Fatalf("forget: n=%d err=%v", n, err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return !p.rst.Engine().Exists("user:alice:profile")
	}, "erasure did not reach the replica's engine")
	testutil.Eventually(t, replWait, 0, func() bool {
		_, err := p.rst.Metadata(core.Ctx{}, "user:alice:profile")
		return err != nil
	}, "erased subject's metadata survived on the replica")
	testutil.Eventually(t, replWait, 0, func() bool {
		recs, err := p.rst.Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: "alice"})
		return err == nil && len(recs) == 1 && recs[0].Actor == "system:replication"
	}, "replica audit trail does not evidence the erasure")

	// Unrelated data is untouched.
	if v, err := p.rst.Get(core.Ctx{}, "user:bob:profile"); err != nil || string(v) != "bob-data" {
		t.Fatalf("unrelated record damaged: %q %v", v, err)
	}
}

func TestReplicationRetentionExpiryPropagates(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)
	if err := p.pcl.GPut("ttl:key", []byte("short-lived"),
		gdprkv.PutOptions{Owner: "carol", Purposes: []string{"ads"}, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.Engine().Exists("ttl:key")
	}, "TTL'd key did not replicate")

	// Advance time past the deadline and run the primary's expiry cycle:
	// the generated DEL must stream to the replica.
	p.clk.Advance(2 * time.Minute)
	p.pst.ExpiryCycle()
	testutil.Eventually(t, replWait, 0, func() bool {
		return !p.rst.Engine().Exists("ttl:key")
	}, "retention-expiry deletion did not reach the replica")
}

func TestReplicationReconnectResumesWithoutLoss(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)
	if err := p.pcl.GPut("k:pre", []byte("1"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.Engine().Exists("k:pre")
	}, "pre-drop write")

	// Sever every link; writes continue while the replica is down.
	p.pst.Hub().DisconnectReplicas()
	for i := 0; i < 10; i++ {
		if err := p.pcl.GPut(fmt.Sprintf("k:during%d", i), []byte("2"),
			gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}}); err != nil {
			t.Fatal(err)
		}
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		for i := 0; i < 10; i++ {
			if !p.rst.Engine().Exists(fmt.Sprintf("k:during%d", i)) {
				return false
			}
		}
		return true
	}, "writes during the drop were lost")
	// The resume must have been a partial resync, not a second snapshot.
	if st := p.rsrv.ReplNode().Status(); st.FullSyncs != 1 {
		t.Fatalf("full syncs = %d, want 1 (backlog should have covered the gap)", st.FullSyncs)
	}
}

func TestReplicaRejectsWritesUntilPromoted(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)

	err := p.rcl.GPut("direct", []byte("x"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}})
	if err == nil || !strings.Contains(err.Error(), "READONLY") {
		t.Fatalf("write on replica: err = %v, want READONLY", err)
	}
	if err := p.rcl.Set("raw", []byte("x")); err == nil || !strings.Contains(err.Error(), "READONLY") {
		t.Fatalf("raw write on replica: err = %v, want READONLY", err)
	}
	// Introspection is served.
	if err := p.rcl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Promotion makes it writable again.
	if err := p.rcl.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
	if err := p.rcl.GPut("direct", []byte("x"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}}); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if p.rsrv.ReplNode() != nil {
		t.Fatal("node still attached after promotion")
	}
}

func TestInfoReplicationSections(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)
	if err := p.pcl.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}}); err != nil {
		t.Fatal(err)
	}

	testutil.Eventually(t, replWait, 0, func() bool {
		info, err := p.pcl.Info("replication")
		return err == nil && strings.Contains(info, "role:master") &&
			strings.Contains(info, "connected_replicas:1") &&
			strings.Contains(info, "master_replid:"+p.pst.Hub().ID())
	}, "primary INFO replication incomplete")

	testutil.Eventually(t, replWait, 0, func() bool {
		info, err := p.rcl.Info("replication")
		return err == nil && strings.Contains(info, "role:replica") &&
			strings.Contains(info, "master_link_status:up") &&
			strings.Contains(info, "master_replid:"+p.pst.Hub().ID())
	}, "replica INFO replication incomplete")

	// Ack offsets converge to the master offset (lag drains to 0).
	testutil.Eventually(t, replWait, 0, func() bool {
		links := p.pst.Hub().Links()
		return len(links) == 1 && links[0].AckOffset == p.pst.Hub().Offset()
	}, "replica ack never converged")

	if _, err := p.pcl.Info("bogus"); err == nil {
		t.Fatal("unknown INFO section accepted")
	}
}

// TestPSYNCRequiresAuthUnderACL: under access control only a controller
// attaches a replica, which receives every record: PSYNC before AUTH, or as
// a regulator, is refused, and a replica that presents a controller in its
// handshake (gdprkv-server -repl-actor) syncs.
func TestPSYNCRequiresAuthUnderACL(t *testing.T) {
	cfg := core.Config{Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true}
	srv, cl := startServer(t, cfg)
	srv.Store().ACL().AddPrincipal(acl.Principal{ID: "dpa", Role: acl.RoleRegulator})
	if _, err := cl.Do("PSYNC", "?", "-1"); err == nil || !strings.Contains(err.Error(), "DENIED") {
		t.Fatalf("unauthenticated PSYNC: err = %v, want DENIED", err)
	}
	cl.Auth("dpa")
	if _, err := cl.Do("PSYNC", "?", "-1"); err == nil || !strings.Contains(err.Error(), "DENIED") {
		t.Fatalf("a regulator's PSYNC: err = %v, want DENIED", err)
	}
	rsrv, _ := startServer(t, cfg)
	rsrv.ReplicaOf(srv.Addr(), replica.NodeOptions{Actor: "controller"})
	ctl := tdial(t, srv.Addr())
	ctl.Auth("controller")
	if err := ctl.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}, TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool { return rsrv.Store().Exists("k") }, "the controller's replica never synced")
}

// TestPromotionResumesDuties pins that the role alone gates the store's
// maintenance loop: a started loop idles while the store is a replica,
// promotion resumes it with no hook, and a second promotion changes
// nothing.
func TestPromotionResumesDuties(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)
	p.rst.StartExpirer()
	if err := p.pcl.GPut("ttl:key", []byte("v"),
		gdprkv.PutOptions{Owner: "carol", Purposes: []string{"ads"}, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.Engine().Exists("ttl:key")
	}, "TTL'd key did not replicate")

	// Past the deadline, the replica's loop leaves the key to the primary.
	p.clk.Advance(2 * time.Minute)
	time.Sleep(3 * store.ActiveExpireCyclePeriod)
	if rt := p.rst.RetentionStats(); rt.ExpiredTotal != 0 || rt.OverdueRecords != 1 || rt.ExpirerRunning {
		t.Fatalf("replica expired on its own: %+v", rt)
	}

	if err := p.rcl.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.RetentionStats().ExpiredTotal == 1
	}, "the promoted node never reaped the overdue key")

	// A no-op promotion keeps the node a primary that expires.
	if err := p.rcl.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
	if p.rst.IsReplica() || !p.rst.RetentionStats().ExpirerRunning {
		t.Fatalf("no-op promotion changed the role: replica=%v %+v", p.rst.IsReplica(), p.rst.RetentionStats())
	}
	if err := p.rcl.GPut("own", []byte("v"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	p.clk.Advance(2 * time.Minute)
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.RetentionStats().ExpiredTotal == 2
	}, "the promoted node stopped expiring after a second promotion")
}

// TestDemotedPrimaryStopsExpiring pins that a store made a replica stops
// expiring on its own clock: the primary extends a key's retention while
// the link is down and the replica's copy passes its old deadline, and
// after the partial resync the replica still holds the key.
func TestDemotedPrimaryStopsExpiring(t *testing.T) {
	p := startReplPair(t)
	p.rst.StartExpirer()
	var open atomic.Bool
	open.Store(true)
	gated := func(addr string) (net.Conn, error) {
		if !open.Load() {
			return nil, errors.New("gate closed")
		}
		return net.Dial("tcp", addr)
	}
	p.rsrv.ReplicaOf(p.psrv.Addr(), replica.NodeOptions{
		Dial: gated, ReconnectMin: 10 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
	})
	p.waitLinkUp(t)
	if err := p.pcl.GPut("ttl:key", []byte("v"),
		gdprkv.PutOptions{Owner: "carol", Purposes: []string{"ads"}, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.Engine().Exists("ttl:key")
	}, "TTL'd key did not replicate")

	open.Store(false)
	p.pst.Hub().DisconnectReplicas()
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rsrv.ReplNode().Status().Link != replica.LinkUp
	}, "link stayed up")
	if _, err := p.pcl.Do("EXPIRE", "ttl:key", "3600"); err != nil {
		t.Fatal(err)
	}
	p.clk.Advance(2 * time.Minute)
	// Give a replica that did expire on its own clock the ticks to do it.
	time.Sleep(3 * store.ActiveExpireCyclePeriod)

	open.Store(true)
	testutil.Eventually(t, replWait, 0, func() bool {
		st := p.rsrv.ReplNode().Status()
		return st.Link == replica.LinkUp && st.Offset == p.pst.Hub().Offset()
	}, "replica never resynced")
	if st := p.rsrv.ReplNode().Status(); st.FullSyncs != 1 || st.Reconnects == 0 {
		t.Fatalf("resync was not partial: %+v", st)
	}
	if !p.rst.Engine().Exists("ttl:key") {
		t.Fatal("the replica reaped a key whose retention the primary extended")
	}
}

func TestFlushAllClearsMetadataEverywhere(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)
	if err := p.pcl.GPut("f:k", []byte("v"), gdprkv.PutOptions{Owner: "o", Purposes: []string{"p"}}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		return p.rst.Engine().Exists("f:k")
	}, "write did not replicate")

	if _, err := p.pcl.Do("FLUSHALL"); err != nil {
		t.Fatal(err)
	}
	// The live primary must not serve ghost metadata after the flush...
	if n := p.pst.MetaCount(); n != 0 {
		t.Fatalf("primary metadata survived FLUSHALL: %d entries", n)
	}
	// ...and the replica converges to the same reset.
	testutil.Eventually(t, replWait, 0, func() bool {
		return !p.rst.Engine().Exists("f:k") && p.rst.MetaCount() == 0
	}, "FLUSHALL did not converge on the replica")
}

func TestChainedReplicationRejected(t *testing.T) {
	p := startReplPair(t)
	p.waitLinkUp(t)
	if _, err := p.rcl.Do("PSYNC", "?", "-1"); err == nil ||
		!strings.Contains(err.Error(), "chained replication") {
		t.Fatalf("PSYNC against a replica: err = %v, want chained-replication rejection", err)
	}
}

func TestReplicaOfValidation(t *testing.T) {
	_, cl := startServer(t, core.Baseline())
	if _, err := cl.Do("REPLICAOF", "localhost", "not-a-port"); err == nil {
		t.Fatal("bad port accepted")
	}
	// NO ONE on a primary is a harmless no-op.
	if err := cl.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
}
