package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	srvs := make([]*Server, n)
	stores := make([]*core.Store, n)
	nodes := make([]cluster.Node, n)
	splits := cluster.EvenSplit(n)
	for i := 0; i < n; i++ {
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
	err := c.Set(ctx, foreign, []byte("v"))
	if !errors.Is(err, gdprkv.ErrMoved) {
		t.Fatalf("mis-routed SET err = %v, want ErrMoved", err)
	}
	var se *gdprkv.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Message, m.NodeForKey(foreign).Addr) {
		t.Fatalf("MOVED reply %v does not name the owner %s", err, m.NodeForKey(foreign).Addr)
	}

	// A batch spanning slots is refused with CROSSSLOT...
	local1, local2 := ownerOn(t, m, "n1"), ownerOn(t, m, "n2")
	err = c.MSet(ctx, []string{local1, local2}, [][]byte{[]byte("1"), []byte("2")})
	if !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("cross-slot MSET err = %v, want ErrCrossSlot", err)
	}
	// ...while owner-tagged keys co-locate and pass.
	tagged := []string{"pd:{" + local1 + "}:a", "pd:{" + local1 + "}:b"}
	if err := c.MSet(ctx, tagged, [][]byte{[]byte("1"), []byte("2")}); err != nil {
		t.Fatalf("same-slot MSET: %v", err)
	}

	// GMPUT cross-slot is caught too (key extractor parses the pair count).
	_, err = c.Do(ctx, "GMPUT", "2", local1, "v1", local2, "v2", "OWNER", "x")
	if !errors.Is(err, gdprkv.ErrCrossSlot) {
		t.Fatalf("cross-slot GMPUT err = %v, want ErrCrossSlot", err)
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
	// Vanilla MGet splits the same way.
	if err := c.MSet(ctx, []string{owners[0], owners[1]}, [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	vals, err := c.MGet(ctx, owners[1], owners[0], "pd:{missing}:x")
	if err != nil || string(vals[0]) != "b" || string(vals[1]) != "a" || vals[2] != nil {
		t.Fatalf("MGet = %q, %v", vals, err)
	}
	if st := c.Stats(); st.Redirects != 0 {
		t.Fatalf("bootstrapped client followed %d redirects, want 0", st.Redirects)
	}
	if st, want := c.Stats(), (gdprkv.Stats{PrimaryReads: 18, Writes: 14}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestClusterClientRedirectRefresh re-points the fleet's slot map under a
// live client: the next touch of a moved slot is redirected exactly once,
// the client refreshes its map from the redirect, and subsequent calls
// route straight to the new owner.
func TestClusterClientRedirectRefresh(t *testing.T) {
	srvs, _, m := startCluster(t, 3)
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
	srvs, _, m := startCluster(t, 3)
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

// TestClusterRightsFanout spreads one subject's records over every node
// (untagged keys), then exercises the cluster-wide right of access and
// erasure through a single node.
func TestClusterRightsFanout(t *testing.T) {
	srvs, stores, m := startCluster(t, 3)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	// Find untagged keys landing on each of the three nodes.
	keyOn := func(nodeID string) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("dave-doc-%d", i)
			if m.NodeForKey(k).ID == nodeID {
				return k
			}
		}
	}
	keys := []string{keyOn("n1"), keyOn("n2"), keyOn("n3")}
	for _, k := range keys {
		if err := c.GPut(ctx, k, []byte("dave-"+k), gdprkv.PutOptions{
			Owner: "dave", Purposes: []string{"service"},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// GETUSER through any single node aggregates all three nodes.
	recs, err := nodeClient(t, srvs[0].Addr()).GetUser(ctx, "dave")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("cluster GETUSER returned %d records, want 3", len(recs))
	}
	// EXPORTUSER merges every node's records into one Art. 20 payload.
	exp, err := c.ExportUser(ctx, "dave")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Format  string            `json:"format"`
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(exp, &payload); err != nil {
		t.Fatalf("export payload: %v", err)
	}
	if payload.Format != "gdprstore-export/v1" || len(payload.Records) != 3 {
		t.Fatalf("cluster export = format %q with %d records, want 3", payload.Format, len(payload.Records))
	}
	// OBJECT applies the Art. 21 objection on every node, so untagged
	// records elsewhere are covered too.
	if err := c.Object(ctx, "dave", "service"); err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		objs := st.Objections("dave")
		if len(objs) != 1 || objs[0] != "service" {
			t.Errorf("node %d objections = %v, want [service]", i+1, objs)
		}
	}
	if err := c.Unobject(ctx, "dave", "service"); err != nil {
		t.Fatal(err)
	}
	for i, st := range stores {
		if objs := st.Objections("dave"); len(objs) != 0 {
			t.Errorf("node %d objections after withdrawal = %v", i+1, objs)
		}
	}

	// FORGETUSER through the cluster client erases everywhere and reports
	// the cluster-wide count.
	n, err := c.ForgetUser(ctx, "dave")
	if err != nil || n != 3 {
		t.Fatalf("cluster FORGETUSER = %d, %v; want 3", n, err)
	}
	for i, st := range stores {
		for _, k := range keys {
			if st.Engine().Exists(k) {
				t.Errorf("node %d still holds %s after cluster erasure", i+1, k)
			}
		}
		// Every node independently evidences the erasure (Art. 30).
		recs, err := st.Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: "dave"})
		if err != nil || len(recs) == 0 {
			t.Errorf("node %d has no FORGETUSER audit record (%v)", i+1, err)
		}
	}
	// Per-node GETUSERDATA (the GDPRbench alias) reports the subject gone.
	for _, srv := range srvs {
		v, err := nodeClient(t, srv.Addr()).Do(ctx, "GETUSERDATA", "dave")
		if err != nil || len(v.Array) != 0 {
			t.Fatalf("post-erasure GETUSERDATA on %s = %d records, %v", srv.Addr(), len(v.Array), err)
		}
	}
}

// TestClusterForgetWithNodeDown kills one primary and checks erasure is
// all-or-reported: the coordinator returns CLUSTERDOWN naming the dead
// node and audits the partial outcome instead of claiming success.
func TestClusterForgetWithNodeDown(t *testing.T) {
	srvs, stores, m := startCluster(t, 3)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	keyOn := func(nodeID string) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("erin-doc-%d", i)
			if m.NodeForKey(k).ID == nodeID {
				return k
			}
		}
	}
	for _, nid := range []string{"n1", "n2", "n3"} {
		if err := c.GPut(ctx, keyOn(nid), []byte("erin-data"), gdprkv.PutOptions{
			Owner: "erin", Purposes: []string{"service"},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill n3, then ask n1 directly for cluster-wide erasure.
	srvs[2].Close()
	n1 := nodeClient(t, srvs[0].Addr())
	_, err := n1.Do(ctx, "FORGETUSER", "erin")
	if !errors.Is(err, gdprkv.ErrClusterDown) {
		t.Fatalf("fan-out with node down: err = %v, want ErrClusterDown", err)
	}
	if !strings.Contains(err.Error(), "n3") {
		t.Fatalf("error does not name the failed node: %v", err)
	}
	// The coordinator audited the partial outcome.
	recs, qerr := stores[0].Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: "erin"})
	if qerr != nil {
		t.Fatal(qerr)
	}
	audited := false
	for _, r := range recs {
		if r.Outcome == audit.OutcomeError && strings.Contains(r.Detail, "n3") {
			audited = true
		}
	}
	if !audited {
		t.Fatalf("no audit record of the partial fan-out; trail: %+v", recs)
	}
	// GETUSER is equally honest about the gap.
	if _, err := n1.GetUser(ctx, "erin"); !errors.Is(err, gdprkv.ErrClusterDown) {
		t.Fatalf("GETUSER with node down: err = %v, want ErrClusterDown", err)
	}
}

// TestClusterFanoutLocalRefusalKeepsWireCode: a refusal by the
// coordinator's own store must surface with its true code (DENIED), not
// be masked as CLUSTERDOWN — callers branch on the error class and the
// class must not depend on the deployment topology.
func TestClusterFanoutLocalRefusalKeepsWireCode(t *testing.T) {
	srvs, stores, _ := startCluster(t, 3)
	ctx := context.Background()
	// Enforce ACLs on the coordinator: a subject may not erase another
	// subject's data.
	stores[0].ACL().SetEnforce(true)
	stores[0].ACL().AddPrincipal(acl.Principal{ID: "mallory", Role: acl.RoleSubject})
	stores[0].ACL().AddPrincipal(acl.Principal{ID: "victim", Role: acl.RoleSubject})

	c := nodeClient(t, srvs[0].Addr())
	if _, err := c.Do(ctx, "AUTH", "mallory"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Do(ctx, "FORGETUSER", "victim")
	if !errors.Is(err, gdprkv.ErrDenied) {
		t.Fatalf("local refusal surfaced as %v, want ErrDenied", err)
	}
	if errors.Is(err, gdprkv.ErrClusterDown) {
		t.Fatalf("local refusal masked as CLUSTERDOWN: %v", err)
	}
}

// TestClusterPipelineSplitsAndReassembles queues a pipeline whose keys
// span all three primaries: Exec must split it per node, run the node
// exchanges, and stitch the replies back in queue order.
func TestClusterPipelineSplitsAndReassembles(t *testing.T) {
	srvs, _, m := startCluster(t, 3)
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
	srvs, _, m := startCluster(t, 3)
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
