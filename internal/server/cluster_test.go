package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/pkg/gdprkv"
)

// startCluster boots n compliant primaries over real TCP, builds an
// even-split slot map over their addresses, and enables cluster mode on
// every node. Node i is named "n<i+1>".
func startCluster(t *testing.T, n int) ([]*Server, []*core.Store, *cluster.Map) {
	t.Helper()
	return startClusterWith(t, n, core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true})
}

// startClusterWith is startCluster with every node's store opened under cfg.
func startClusterWith(t *testing.T, n int, cfg core.Config) ([]*Server, []*core.Store, *cluster.Map) {
	t.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return startClusterOf(t, cfgs...)
}

// startClusterOf is startCluster with node i's store opened under cfgs[i].
func startClusterOf(t *testing.T, cfgs ...core.Config) ([]*Server, []*core.Store, *cluster.Map) {
	t.Helper()
	n := len(cfgs)
	srvs := make([]*Server, n)
	stores := make([]*core.Store, n)
	nodes := make([]cluster.Node, n)
	splits := cluster.EvenSplit(n)
	for i, cfg := range cfgs {
		st, err := core.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		srv, err := Listen("127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i], stores[i] = srv, st
		nodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: srv.Addr(), Ranges: splits[i]}
	}
	m, err := cluster.NewMap(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(ClusterConfig{Self: nodes[i].ID, Map: m}); err != nil {
			t.Fatal(err)
		}
	}
	return srvs, stores, m
}

// nodeClient dials a plain (non-cluster) single-connection client to one
// node, for talking to that node and no other.
func nodeClient(t *testing.T, addr string) *gdprkv.Client {
	t.Helper()
	c, err := gdprkv.Dial(context.Background(), addr, gdprkv.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// clusterClient dials a cluster-aware client bootstrapped from the first
// node.
func clusterClient(t *testing.T, srvs []*Server) *gdprkv.Client {
	t.Helper()
	seeds := make([]string, 0, len(srvs)-1)
	for _, s := range srvs[1:] {
		seeds = append(seeds, s.Addr())
	}
	c, err := gdprkv.Dial(context.Background(), srvs[0].Addr(), gdprkv.WithCluster(seeds...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// ownerOn finds an owner name whose slot is owned by the given node.
func ownerOn(t *testing.T, m *cluster.Map, nodeID string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		o := fmt.Sprintf("owner%05d", i)
		if m.NodeForKey(o).ID == nodeID {
			return o
		}
	}
	t.Fatalf("no owner hashes to node %s", nodeID)
	return ""
}

func TestClusterIntrospection(t *testing.T) {
	srvs, _, m := startCluster(t, 3)
	ctx := context.Background()
	c := nodeClient(t, srvs[0].Addr())

	v, err := c.Do(ctx, "CLUSTER", "SLOTS")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Array) != 3 {
		t.Fatalf("CLUSTER SLOTS entries = %d, want 3", len(v.Array))
	}
	covered := 0
	for _, e := range v.Array {
		covered += int(e.Array[1].Int-e.Array[0].Int) + 1
	}
	if covered != cluster.NumSlots {
		t.Fatalf("CLUSTER SLOTS cover %d slots, want %d", covered, cluster.NumSlots)
	}

	kv, err := c.Do(ctx, "CLUSTER", "KEYSLOT", "pd:{alice}:email")
	if err != nil {
		t.Fatal(err)
	}
	if uint16(kv.Int) != cluster.Slot("alice") {
		t.Fatalf("KEYSLOT tagged = %d, want owner slot %d", kv.Int, cluster.Slot("alice"))
	}

	id, err := c.Do(ctx, "CLUSTER", "MYID")
	if err != nil || id.Text() != "n1" {
		t.Fatalf("MYID = %q, %v", id.Text(), err)
	}

	info, err := c.Info(ctx, "cluster")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster_enabled:1", "cluster_known_nodes:3", "cluster_self:n1",
		"cluster_slots:1024"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO cluster missing %q:\n%s", want, info)
		}
	}
	if _, ok := m.NodeByID("n3"); !ok {
		t.Fatal("map lost a node")
	}
}

// TestClusterMovedAndCrossSlot drives mis-routed and mixed-slot commands
// at a single node and checks the Redis-shaped rejections.
func TestClusterMovedAndCrossSlot(t *testing.T) {
	srvs, _, m := startCluster(t, 3)
	ctx := context.Background()
	c := nodeClient(t, srvs[0].Addr())

	// A key owned by another node is refused with MOVED naming the owner.
	foreign := ownerOn(t, m, "n2")
	err := c.GPut(ctx, foreign, []byte("v"), gdprkv.PutOptions{Owner: foreign})
	if !errors.Is(err, gdprkv.ErrMoved) {
		t.Fatalf("mis-routed GPUT err = %v, want ErrMoved", err)
	}
	var se *gdprkv.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Message, m.NodeForKey(foreign).Addr) {
		t.Fatalf("MOVED reply %v does not name the owner %s", err, m.NodeForKey(foreign).Addr)
	}

	// A batch spanning slots is refused with CROSSSLOT (the key extractor
	// parses GMPUT's pair count)...
	local1, local2 := ownerOn(t, m, "n1"), ownerOn(t, m, "n2")
	_, err = c.Do(ctx, "GMPUT", "2", local1, "v1", local2, "v2", "OWNER", "x")
	if !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("cross-slot GMPUT err = %v, want ErrCrossSlot", err)
	}
	// ...while owner-tagged keys co-locate and pass.
	tagged := []string{"pd:{" + local1 + "}:a", "pd:{" + local1 + "}:b"}
	if err := c.GMPut(ctx, tagged, [][]byte{[]byte("1"), []byte("2")}, gdprkv.PutOptions{Owner: local1}); err != nil {
		t.Fatalf("same-slot GMPUT: %v", err)
	}

	// A compliant cluster serves no raw command: the gate refuses a
	// mis-routed SET before the cluster stage could redirect it.
	err = c.Set(ctx, foreign, []byte("v"))
	if !errors.Is(err, gdprkv.ErrDenied) {
		t.Fatalf("raw SET on a compliant cluster err = %v, want ErrDenied", err)
	}
}

// TestClusterClientRouting checks the cluster client spreads keys across
// all primaries and reassembles split batches in order.
func TestClusterClientRouting(t *testing.T) {
	srvs, _, m := startCluster(t, 3)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	// One owner per node, several records each, owner-tagged.
	owners := []string{ownerOn(t, m, "n1"), ownerOn(t, m, "n2"), ownerOn(t, m, "n3")}
	var keys []string
	for _, o := range owners {
		for r := 0; r < 4; r++ {
			k := fmt.Sprintf("pd:{%s}:rec%d", o, r)
			keys = append(keys, k)
			if err := c.GPut(ctx, k, []byte(k+"-val"), gdprkv.PutOptions{
				Owner: o, Purposes: []string{"service"},
			}); err != nil {
				t.Fatalf("GPut %s: %v", k, err)
			}
		}
	}
	// Every node served writes (the keyspace is genuinely partitioned).
	for i, srv := range srvs {
		if srv.CommandStats().Snapshots()["GPUT"].Count == 0 {
			t.Errorf("node %d served no GPUTs", i+1)
		}
	}
	// Reads route to the right owners with zero redirects.
	for _, k := range keys {
		v, err := c.GGet(ctx, k)
		if err != nil || string(v) != k+"-val" {
			t.Fatalf("GGet %s = %q, %v", k, v, err)
		}
	}
	// A batch read spanning all three nodes reassembles positionally.
	got, err := c.GMGet(ctx, keys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g.Err != nil || string(g.Value) != keys[i]+"-val" {
			t.Fatalf("GMGet[%d] = %q, %v", i, g.Value, g.Err)
		}
	}
	if st, want := c.Stats(), (gdprkv.Stats{PrimaryReads: 15, Writes: 12}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	// Vanilla MGet splits the same way, on a baseline cluster: a compliant
	// one serves no raw command.
	bsrvs, _, bm := startClusterWith(t, 3, core.Baseline())
	bc := clusterClient(t, bsrvs)
	owners = []string{ownerOn(t, bm, "n1"), ownerOn(t, bm, "n2")}
	if err := bc.MSet(ctx, owners, [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	vals, err := bc.MGet(ctx, owners[1], owners[0], "pd:{missing}:x")
	if err != nil || string(vals[0]) != "b" || string(vals[1]) != "a" || vals[2] != nil {
		t.Fatalf("MGet = %q, %v", vals, err)
	}
	if st, want := bc.Stats(), (gdprkv.Stats{PrimaryReads: 3, Writes: 2}); st != want {
		t.Fatalf("baseline stats = %+v, want %+v", st, want)
	}
}

// TestClusterClientRedirectRefresh re-points the fleet's slot map under a
// live client: the next touch of a moved slot is redirected exactly once,
// the client refreshes its map from the redirect, and subsequent calls
// route straight to the new owner.
func TestClusterClientRedirectRefresh(t *testing.T) {
	srvs, _, m := startClusterWith(t, 3, core.Baseline()) // raw commands: a compliant cluster serves none
	ctx := context.Background()
	c := clusterClient(t, srvs)

	owner := ownerOn(t, m, "n3")
	key := "pd:{" + owner + "}:rec"
	if err := c.Set(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Reassign: swap n2's and n3's ranges fleet-wide (a static map
	// rollout). The owner's slot now lives on n2; n3 still holds the data
	// bytes, so move them so the read has something to find.
	nodes := m.Nodes()
	nodes[1].Ranges, nodes[2].Ranges = nodes[2].Ranges, nodes[1].Ranges
	m2, err := cluster.NewMap(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(ClusterConfig{Self: nodes[i].ID, Map: m2}); err != nil {
			t.Fatal(err)
		}
	}
	srvs[1].Store().Engine().Set(key, []byte("v1"))

	// The stale client hits old owner n3, gets MOVED to n2, follows it
	// transparently — exactly one redirect — and refreshes its map.
	v, err := c.Get(ctx, key)
	if err != nil || string(v) != "v1" {
		t.Fatalf("redirected GET = %q, %v", v, err)
	}
	st := c.Stats()
	if st.Redirects != 1 {
		t.Fatalf("redirects = %d, want exactly 1", st.Redirects)
	}
	if st.SlotRefreshes != 1 {
		t.Fatalf("slot refreshes = %d, want 1", st.SlotRefreshes)
	}
	// The refreshed map routes the second read directly: no new redirect.
	if _, err := c.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Redirects != 1 {
		t.Fatalf("refreshed client still redirected: %d", st.Redirects)
	}
	if st, want := c.Stats(), (gdprkv.Stats{PrimaryReads: 2, Writes: 1, Redirects: 1, SlotRefreshes: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestClusterClientReadRetryBudget: a cluster read takes its retry budget
// from WithRetry, as a standalone read does. n1 is announced behind a
// forwarder whose connections are cut between calls. Under WithRetry(2)
// the read is retried on its owner; under the default single attempt it
// surfaces the transport error.
func TestClusterClientReadRetryBudget(t *testing.T) {
	srvs, _, m := startClusterWith(t, 3, core.Baseline()) // raw commands: a compliant cluster serves none
	ctx := context.Background()
	fwd := newForwarder(t, srvs[0].Addr())
	nodes := m.Nodes()
	nodes[0].Addr = fwd.addr()
	viaFwd, err := cluster.NewMap(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(ClusterConfig{Self: nodes[i].ID, Map: viaFwd}); err != nil {
			t.Fatal(err)
		}
	}
	key := "pd:{" + ownerOn(t, m, "n1") + "}:k"
	if err := nodeClient(t, srvs[0].Addr()).Set(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// dialRead dials a cluster client bootstrapped from n2, reads key once
	// to open its connection to n1, then cuts that connection and reads
	// again.
	dialRead := func(opts ...gdprkv.Option) (*gdprkv.Client, []byte, error) {
		c, err := gdprkv.Dial(ctx, srvs[1].Addr(), append(opts, gdprkv.WithCluster(), gdprkv.WithPoolSize(1))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if v, err := c.Get(ctx, key); err != nil || string(v) != "v" {
			t.Fatalf("first read = %q, %v", v, err)
		}
		fwd.cut()
		v, err := c.Get(ctx, key)
		return c, v, err
	}
	retry, v, err := dialRead(gdprkv.WithRetry(2, time.Millisecond))
	if err != nil || string(v) != "v" {
		t.Fatalf("WithRetry(2) read after a cut = %q, %v; want the owner's value", v, err)
	}
	if st, want := retry.Stats(), (gdprkv.Stats{PrimaryReads: 2, Retries: 1, Redials: 1, Failovers: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	def, _, err := dialRead()
	var se *gdprkv.ServerError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("default-budget read after a cut = %v, want the transport error", err)
	}
	if st, want := def.Stats(), (gdprkv.Stats{PrimaryReads: 2, Redials: 1, Failovers: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestClusterPlacementRefusesOffSlotWrite: in cluster mode a compliant
// write whose key does not hash to its owner's slot gets CROSSSLOT before
// anything runs: no engine key, no OK trail record. A standalone server
// takes the same GPUT.
func TestClusterPlacementRefusesOffSlotWrite(t *testing.T) {
	srvs, stores, m := startCluster(t, 2)
	ctx := context.Background()
	owner := ownerOn(t, m, "n1")
	// An untagged key on n1's own slots, so the refusal is not a MOVED.
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("doc-%d", i)
		if m.NodeForKey(k).ID == "n1" && cluster.Slot(k) != cluster.Slot(owner) {
			key = k
		}
	}
	tagged := fmt.Sprintf("pd:{%s}:1", owner)
	opts := gdprkv.PutOptions{Owner: owner, Purposes: []string{"service"}}
	n1 := nodeClient(t, srvs[0].Addr())
	if err := n1.GPut(ctx, key, []byte("v"), opts); !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("GPUT of an off-slot key = %v, want ErrCrossSlot", err)
	}
	if _, err := n1.Do(ctx, "GMPUT", "2", tagged, "v", key, "v", "OWNER", owner, "PURPOSES", "service"); !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("GMPUT with an off-slot key = %v, want ErrCrossSlot", err)
	}
	if _, err := n1.Do(ctx, "GMPUT", "1", key, "v", "OWNER", owner, "PURPOSES", "service"); !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("GMPUT of one off-slot key = %v, want ErrCrossSlot", err)
	}
	for i, st := range stores {
		if n := st.Engine().RawLen(); n != 0 {
			t.Errorf("node %d stored %d keys of refused writes", i+1, n)
		}
		if recs, err := st.Trail().Query(audit.Filter{Outcome: audit.OutcomeOK}); err != nil || len(recs) != 0 {
			t.Errorf("node %d trail holds OK records of refused writes: %+v, %v", i+1, recs, err)
		}
	}
	// A migration record of the same key is refused the same way.
	st, err := core.Open(core.Config{Compliant: true, Capability: core.CapabilityPartial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(core.Ctx{}, key, []byte("v"), core.PutOptions{Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}
	rec, _, _, err := st.DumpForMigration(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.DoArgs(ctx, "RESTOREKEY", rec...); !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("RESTOREKEY of an off-slot record = %v, want ErrCrossSlot", err)
	}
	for i, st := range stores {
		if n := st.Engine().RawLen(); n != 0 {
			t.Errorf("node %d stored %d keys of refused writes", i+1, n)
		}
		if recs, err := st.Trail().Query(audit.Filter{Outcome: audit.OutcomeOK}); err != nil || len(recs) != 0 {
			t.Errorf("node %d trail holds OK records of refused writes: %+v, %v", i+1, recs, err)
		}
	}
	// The tagged key is the owner's slot, so it lands.
	if err := n1.GPut(ctx, tagged, []byte("v"), opts); err != nil {
		t.Fatalf("GPUT of a tagged key: %v", err)
	}

	_, c := startServer(t, core.Config{Compliant: true, Capability: core.CapabilityPartial})
	if err := c.GPut(key, []byte("v"), opts); err != nil {
		t.Fatalf("standalone GPUT of the same key: %v", err)
	}
}

// TestClusterRefusesMisplacedData: a store that holds a compliant record
// whose key does not hash to its owner's slot, written by a standalone
// server and read back from its AOF, cannot enter cluster mode: the error
// names the key and the upgrade step. Once the subject is erased there,
// the same store can; tagged keys never stand in the way.
func TestClusterRefusesMisplacedData(t *testing.T) {
	cfg := core.Config{Compliant: true, Capability: core.CapabilityPartial, AOFPath: filepath.Join(t.TempDir(), "a.aof")}
	const owner, key = "bob", "demo2"
	if cluster.Slot(key) == cluster.Slot(owner) {
		t.Fatal("the fixture key hashes to its owner's slot")
	}
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.PutOptions{Owner: owner, Purposes: []string{"service"}}
	for _, k := range []string{key, "pd:{bob}:1", "pd:{carol}:1"} {
		o := opts
		if k == "pd:{carol}:1" {
			o.Owner = "carol"
		}
		if err := st.Put(core.Ctx{}, k, []byte("v"), o); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv, c := startServer(t, cfg)
	m, err := cluster.NewMap([]cluster.Node{{ID: "n1", Addr: srv.Addr(), Ranges: cluster.EvenSplit(1)[0]}})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.EnableCluster(ClusterConfig{Self: "n1", Map: m})
	if !errors.Is(err, ErrMisplacedData) || !strings.Contains(err.Error(), `"demo2"`) || !strings.Contains(err.Error(), "FORGETUSER") {
		t.Fatalf("EnableCluster over a misplaced record = %v, want ErrMisplacedData naming %q and the upgrade step", err, key)
	}
	if srv.clusterInfo() != nil {
		t.Fatal("the refused EnableCluster put the server in cluster mode")
	}
	if n, err := c.SDK().ForgetUser(ctxb(), owner); err != nil || n != 2 {
		t.Fatalf("FORGETUSER %s = %d, %v; want 2", owner, n, err)
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "n1", Map: m}); err != nil {
		t.Fatalf("EnableCluster after the erasure: %v", err)
	}
}

// TestClusterRightsRouteToOwnerSlot: every rights command sent to a node
// that does not own the subject's slot answers MOVED to the owner. Through
// the cluster client the owner node alone answers each right: the whole
// report and export, the objection, a refusal with its own code, and the
// erasure, which only its trail records.
func TestClusterRightsRouteToOwnerSlot(t *testing.T) {
	srvs, stores, m := startCluster(t, 3)
	ctx := context.Background()
	owner := ownerOn(t, m, "n2")
	c := clusterClient(t, srvs)
	for i := 0; i < 3; i++ {
		if err := c.GPut(ctx, fmt.Sprintf("pd:{%s}:%d", owner, i), []byte("v"), gdprkv.PutOptions{
			Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	n1 := nodeClient(t, srvs[0].Addr())
	want := fmt.Sprintf("MOVED %d %s", cluster.Slot(owner), srvs[1].Addr())
	for _, cmd := range [][]string{
		{"GETUSER", owner}, {"GETUSERDATA", owner}, {"EXPORTUSER", owner}, {"ACCESS", owner},
		{"OWNERKEYS", owner}, {"OBJECT", owner, "ads"}, {"UNOBJECT", owner, "ads"}, {"FORGETUSER", owner},
	} {
		if _, err := n1.Do(ctx, cmd...); !errors.Is(err, gdprkv.ErrMoved) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on n1 = %v, want %q", cmd[0], err, want)
		}
	}
	if recs, err := c.GetUser(ctx, owner); err != nil || len(recs) != 3 {
		t.Fatalf("GETUSER = %d records, %v; want 3", len(recs), err)
	}
	exp, err := c.ExportUser(ctx, owner)
	var payload struct {
		Format  string            `json:"format"`
		Records []json.RawMessage `json:"records"`
	}
	if err != nil || json.Unmarshal(exp, &payload) != nil || payload.Format != "gdprstore-export/v1" || len(payload.Records) != 3 {
		t.Fatalf("EXPORTUSER = %s, %v; want a gdprstore-export/v1 payload of 3 records", exp, err)
	}
	if err := c.Object(ctx, owner, "ads"); err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if got := st.Objections(owner); (i == 1) != (len(got) == 1) {
			t.Errorf("node %d: %s objects to %v; only n2 holds the subject", i+1, owner, got)
		}
	}
	if err := c.Unobject(ctx, owner, "ads"); err != nil || stores[1].Objections(owner) != nil {
		t.Fatalf("UNOBJECT = %v; n2 objections %v", err, stores[1].Objections(owner))
	}
	// A refusal on the owner node keeps its own wire code.
	stores[1].ACL().AddPrincipal(acl.Principal{ID: "mallory", Role: acl.RoleSubject})
	stores[1].ACL().SetEnforce(true)
	n2 := nodeClient(t, srvs[1].Addr())
	if _, err := n2.Do(ctx, "AUTH", "mallory"); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Do(ctx, "FORGETUSER", owner); !errors.Is(err, gdprkv.ErrDenied) {
		t.Fatalf("FORGETUSER of another subject = %v, want ErrDenied", err)
	}
	stores[1].ACL().SetEnforce(false)
	if n, err := c.ForgetUser(ctx, owner); err != nil || n != 3 {
		t.Fatalf("FORGETUSER = %d, %v; want 3", n, err)
	}
	for i, st := range stores {
		recs, err := st.Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: owner, Outcome: audit.OutcomeOK})
		if wantN := map[bool]int{true: 1}[i == 1]; err != nil || len(recs) != wantN {
			t.Errorf("node %d FORGETUSER records = %d, %v; want %d", i+1, len(recs), err, wantN)
		}
	}
	if v, err := c.Do(ctx, "GETUSERDATA", owner); err != nil || len(v.Array) != 0 {
		t.Fatalf("GETUSERDATA after the erasure = %d records, %v; want none", len(v.Array), err)
	}
}

// TestClusterForgetWithNodeDown: with another primary down, FORGETUSER for
// a subject on a live node succeeds there, since no other node holds any of
// the subject. A rights command for a subject on the dead node names it
// in its redirect.
func TestClusterForgetWithNodeDown(t *testing.T) {
	srvs, stores, m := startCluster(t, 3)
	ctx := context.Background()
	c := clusterClient(t, srvs)
	owner := ownerOn(t, m, "n1")
	keys := []string{fmt.Sprintf("pd:{%s}:a", owner), fmt.Sprintf("pd:{%s}:b", owner)}
	for _, k := range keys {
		if err := c.GPut(ctx, k, []byte("erin-data"), gdprkv.PutOptions{
			Owner: owner, Purposes: []string{"service"},
		}); err != nil {
			t.Fatal(err)
		}
	}

	srvs[2].Close()
	if n, err := c.ForgetUser(ctx, owner); err != nil || n != 2 {
		t.Fatalf("FORGETUSER with n3 down = %d, %v; want 2", n, err)
	}
	for _, k := range keys {
		if stores[0].Engine().Exists(k) {
			t.Errorf("n1 still holds %s after the erasure", k)
		}
	}
	recs, err := stores[0].Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: owner, Outcome: audit.OutcomeOK})
	if err != nil || len(recs) != 1 {
		t.Fatalf("n1 FORGETUSER OK records = %d, %v; want 1", len(recs), err)
	}
	if recs, err := c.GetUser(ctx, owner); err != nil || len(recs) != 0 {
		t.Fatalf("GETUSER after the erasure = %v, %v; want none", recs, err)
	}
	gone := ownerOn(t, m, "n3")
	if _, err := nodeClient(t, srvs[0].Addr()).Do(ctx, "FORGETUSER", gone); !errors.Is(err, gdprkv.ErrMoved) ||
		!strings.Contains(err.Error(), srvs[2].Addr()) {
		t.Fatalf("FORGETUSER for a subject on the dead node = %v, want MOVED to it", err)
	}
}

// TestClusterPipelineSplitsAndReassembles queues a pipeline whose keys
// span all three primaries: Exec must split it per node, run the node
// exchanges, and stitch the replies back in queue order.
func TestClusterPipelineSplitsAndReassembles(t *testing.T) {
	srvs, _, m := startClusterWith(t, 3, core.Baseline()) // raw commands: a compliant cluster serves none
	ctx := context.Background()
	c := clusterClient(t, srvs)

	owners := []string{ownerOn(t, m, "n1"), ownerOn(t, m, "n2"), ownerOn(t, m, "n3")}
	p := c.Pipeline()
	// Interleave nodes deliberately so per-node grouping must reorder and
	// the positional mapping must undo it.
	for r := 0; r < 3; r++ {
		for _, o := range owners {
			p.Set(fmt.Sprintf("{%s}:r%d", o, r), []byte(fmt.Sprintf("%s-%d", o, r)))
		}
	}
	for r := 0; r < 3; r++ {
		for _, o := range owners {
			p.Get(fmt.Sprintf("{%s}:r%d", o, r))
		}
	}
	p.Get("{" + owners[0] + "}:missing")
	res, err := p.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 19 {
		t.Fatalf("len(res) = %d, want 19", len(res))
	}
	for i := 0; i < 9; i++ {
		if res[i].Err != nil {
			t.Fatalf("set res[%d].Err = %v", i, res[i].Err)
		}
	}
	for r := 0; r < 3; r++ {
		for j, o := range owners {
			i := 9 + r*3 + j
			v, err := res[i].Bytes()
			if err != nil || string(v) != fmt.Sprintf("%s-%d", o, r) {
				t.Fatalf("res[%d] = %q, %v; want %s-%d — cluster reassembly misordered", i, v, err, o, r)
			}
		}
	}
	if !errors.Is(res[18].Err, gdprkv.ErrNotFound) {
		t.Fatalf("res[18].Err = %v, want ErrNotFound", res[18].Err)
	}
	// Every node served its share of the split.
	for i, srv := range srvs {
		if srv.CommandStats().Snapshots()["SET"].Count == 0 {
			t.Errorf("node %d served no pipelined SETs", i+1)
		}
	}
	if st, want := c.Stats(), (gdprkv.Stats{PipelineExecs: 1, PipelineOps: 19}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestClusterPipelineFollowsMovedMidPipeline re-points a slot between
// queueing and Exec: the op answered with MOVED must be retried against
// the new owner individually while every other slot keeps its reply.
func TestClusterPipelineFollowsMovedMidPipeline(t *testing.T) {
	srvs, _, m := startClusterWith(t, 3, core.Baseline()) // raw commands: a compliant cluster serves none
	ctx := context.Background()
	c := clusterClient(t, srvs)

	stay := ownerOn(t, m, "n1")
	move := ownerOn(t, m, "n3")
	stayKey, moveKey := "{"+stay+"}:k", "{"+move+"}:k"
	if err := c.Set(ctx, stayKey, []byte("stay")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(ctx, moveKey, []byte("moved")); err != nil {
		t.Fatal(err)
	}

	// Swap n2's and n3's ranges fleet-wide; the client's map is now stale
	// for moveKey. Copy the bytes so the new owner can serve the read.
	nodes := m.Nodes()
	nodes[1].Ranges, nodes[2].Ranges = nodes[2].Ranges, nodes[1].Ranges
	m2, err := cluster.NewMap(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(ClusterConfig{Self: nodes[i].ID, Map: m2}); err != nil {
			t.Fatal(err)
		}
	}
	srvs[1].Store().Engine().Set(moveKey, []byte("moved"))

	res, err := c.Pipeline().Get(stayKey).Get(moveKey).Get(stayKey).Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"stay", "moved", "stay"} {
		v, err := res[i].Bytes()
		if err != nil || string(v) != want {
			t.Fatalf("res[%d] = %q, %v; want %q", i, v, err, want)
		}
	}
	st := c.Stats()
	if st.Redirects == 0 {
		t.Fatal("pipeline followed no redirect despite a stale slot map")
	}
	if want := (gdprkv.Stats{Writes: 2, Redirects: 1, SlotRefreshes: 1, PipelineExecs: 1, PipelineOps: 3}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}
