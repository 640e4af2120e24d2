package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/internal/replica"
	"gdprstore/internal/testutil"
	"gdprstore/pkg/gdprkv"
)

// End-to-end tests for cluster elasticity: the CLUSTER admin surface,
// live slot migration with ASK redirects, erasure racing a migration,
// and primary failover with replica promotion.

// TestOwnerRecordOffTheKeyspace: the owner record that holds a subject's
// standing objections is no key a client can list, name (with a GDPR
// command in any key position, or RESTOREKEY of anything but an owner
// record) or read back in a rights report. A slot's key list leaves it out
// too; a slot migration moves it with its subject
// (TestClusterMigrationCarriesObjection). A compliant store serves no raw
// command at all (TestGateTable), so none names it either.
func TestOwnerRecordOffTheKeyspace(t *testing.T) {
	srvs, stores, _ := startCluster(t, 1)
	ctx := context.Background()
	c := nodeClient(t, srvs[0].Addr())
	if err := c.GPut(ctx, "pd:{bob}:1", []byte("v"), gdprkv.PutOptions{Owner: "bob", Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Object(ctx, "bob", "ads"); err != nil {
		t.Fatal(err)
	}
	const ownerKey = "\x00owner:{bob}"
	if !stores[0].Engine().Exists(ownerKey) {
		t.Fatal("OBJECT wrote no owner record")
	}
	want := []string{"pd:{bob}:1"}
	ss := strconv.Itoa(int(cluster.Slot(ownerKey)))
	if v, err := c.Do(ctx, "CLUSTER", "GETKEYSINSLOT", ss, "10"); err != nil || len(v.Array) != 1 || v.Array[0].Text() != want[0] {
		t.Fatalf("GETKEYSINSLOT = %v, %v; want %q", v.Array, err, want)
	}
	if v, err := c.Do(ctx, "CLUSTER", "COUNTKEYSINSLOT", ss); err != nil || v.Int != 1 {
		t.Fatalf("COUNTKEYSINSLOT = %d, %v; want 1", v.Int, err)
	}
	if recs, err := c.GetUser(ctx, "bob"); err != nil || len(recs) != 1 {
		t.Fatalf("GETUSER bob = %v, %v; want pd:{bob}:1 alone", recs, err)
	}
	if out, err := c.ExportUser(ctx, "bob"); err != nil || bytes.Contains(out, []byte("owner:")) || !bytes.Contains(out, []byte(want[0])) {
		t.Fatalf("EXPORTUSER bob = %s, %v", out, err)
	}
	for _, cmd := range [][]string{
		{"GPUT", ownerKey, "v", "OWNER", "bob", "PURPOSES", "service"},
		{"GGET", ownerKey},
		{"GETMETA", ownerKey},
		{"RESTOREKEY", "SET", ownerKey, "v"},
		{"GMGET", "pd:{bob}:1", ownerKey},
		{"GMPUT", "2", "pd:{bob}:2", "v", ownerKey, "v", "OWNER", "bob", "PURPOSES", "service"},
	} {
		if _, err := c.Do(ctx, cmd...); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("%s of the owner record's key: %v, want a refusal", cmd[0], err)
		}
	}
	if got := stores[0].Objections("bob"); !reflect.DeepEqual(got, []string{"ads"}) || !stores[0].Exists(want[0]) {
		t.Fatalf("bob objects to %v after the refusals (want [ads]); %s exists %v", got, want[0], stores[0].Exists(want[0]))
	}
}

func TestClusterAdminSurface(t *testing.T) {
	srvs, _, m := startCluster(t, 2)
	ctx := context.Background()
	c := nodeClient(t, srvs[0].Addr())

	// CLUSTER HELP is generated from the dispatch table, so every
	// subcommand must appear in it.
	hv, err := c.Do(ctx, "CLUSTER", "HELP")
	if err != nil {
		t.Fatal(err)
	}
	var help []string
	for _, l := range hv.Array {
		help = append(help, l.Text())
	}
	joined := strings.Join(help, "\n")
	for _, sub := range []string{"SLOTS", "INFO", "MYID", "KEYSLOT", "TOPOLOGY",
		"SETSLOT", "SETNODE", "COUNTKEYSINSLOT", "GETKEYSINSLOT", "MIGRATESLOT", "HELP"} {
		if !strings.Contains(joined, "CLUSTER "+sub) {
			t.Errorf("CLUSTER HELP missing %s:\n%s", sub, joined)
		}
	}

	// Unknown subcommands point at HELP; arity errors name the usage.
	if _, err := c.Do(ctx, "CLUSTER", "BOGUS"); err == nil ||
		!strings.Contains(err.Error(), "CLUSTER HELP") {
		t.Errorf("unknown subcommand error = %v, want a pointer to CLUSTER HELP", err)
	}
	if _, err := c.Do(ctx, "CLUSTER", "KEYSLOT"); err == nil ||
		!strings.Contains(err.Error(), "CLUSTER KEYSLOT key") {
		t.Errorf("arity error = %v, want the KEYSLOT usage string", err)
	}

	owner := ownerOn(t, m, "n1")
	slot := cluster.Slot(owner)
	ss := strconv.Itoa(int(slot))

	// SETSLOT validation: bad slots, unknown or nonsensical peers, and
	// verb/argument mismatches are all rejected.
	for _, bad := range [][]string{
		{"CLUSTER", "SETSLOT", "4096", "MIGRATING", "n2"}, // slot out of range
		{"CLUSTER", "SETSLOT", ss, "MIGRATING", "nope"},   // unknown destination
		{"CLUSTER", "SETSLOT", ss, "MIGRATING", "n1"},     // destination owns it already
		{"CLUSTER", "SETSLOT", ss, "IMPORTING", "n2"},     // source is not the owner
		{"CLUSTER", "SETSLOT", ss, "STABLE", "n1"},        // STABLE takes no id
		{"CLUSTER", "SETSLOT", ss, "NODE"},                // NODE needs an id
		{"CLUSTER", "SETNODE", "n1", "noport"},            // not host:port
	} {
		if _, err := c.Do(ctx, bad...); err == nil {
			t.Errorf("%v did not fail", bad)
		}
	}

	// The epoch starts at 1 and bumps exactly once per mutation, visible
	// in INFO and CLUSTER TOPOLOGY alike.
	info, err := c.Info(ctx, "cluster")
	if err != nil || !strings.Contains(info, "cluster_epoch:1") {
		t.Fatalf("fresh INFO cluster (%v):\n%s", err, info)
	}
	if _, err := c.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}
	info, _ = c.Info(ctx, "cluster")
	for _, want := range []string{"cluster_epoch:2", "cluster_migrating_slots:1"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO cluster missing %q after SETSLOT:\n%s", want, info)
		}
	}
	tv, err := c.Do(ctx, "CLUSTER", "TOPOLOGY")
	if err != nil {
		t.Fatal(err)
	}
	if tv.Array[0].Int != 2 {
		t.Errorf("TOPOLOGY epoch = %d, want 2", tv.Array[0].Int)
	}
	migs := tv.Array[2].Array
	if len(migs) != 1 || migs[0].Array[0].Int != int64(slot) ||
		migs[0].Array[1].Text() != "migrating" || migs[0].Array[2].Text() != "n2" {
		t.Errorf("TOPOLOGY migrations = %v, want [[%d migrating n2]]", migs, slot)
	}

	// STABLE aborts the migration and bumps again.
	if _, err := c.Do(ctx, "CLUSTER", "SETSLOT", ss, "STABLE"); err != nil {
		t.Fatal(err)
	}
	info, _ = c.Info(ctx, "cluster")
	for _, want := range []string{"cluster_epoch:3", "cluster_migrating_slots:0"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO cluster missing %q after STABLE:\n%s", want, info)
		}
	}

	// COUNTKEYSINSLOT/GETKEYSINSLOT see live keys only: a crypto-erased
	// ghost is not data anymore.
	k1, k2 := fmt.Sprintf("pd:{%s}:a", owner), fmt.Sprintf("pd:{%s}:b", owner)
	for _, k := range []string{k1, k2} {
		if err := c.GPut(ctx, k, []byte("x"), gdprkv.PutOptions{
			Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := c.Do(ctx, "CLUSTER", "COUNTKEYSINSLOT", ss); err != nil || v.Int != 2 {
		t.Fatalf("COUNTKEYSINSLOT = %d, %v; want 2", v.Int, err)
	}
	if v, err := c.Do(ctx, "CLUSTER", "GETKEYSINSLOT", ss, "1"); err != nil ||
		len(v.Array) != 1 || v.Array[0].Text() != k1 {
		t.Fatalf("GETKEYSINSLOT limit 1 = %v, %v; want [%s] (sorted)", v.Array, err, k1)
	}
	if _, err := c.ForgetUser(ctx, owner); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Do(ctx, "CLUSTER", "COUNTKEYSINSLOT", ss); err != nil || v.Int != 0 {
		t.Fatalf("COUNTKEYSINSLOT after erasure = %d, %v; want 0", v.Int, err)
	}
}

func TestClusterSlotMigrationWithAsk(t *testing.T) {
	srvs, stores, m := startCluster(t, 3)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	owner := ownerOn(t, m, "n1")
	slot := cluster.Slot(owner)
	ss := strconv.Itoa(int(slot))
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = fmt.Sprintf("pd:{%s}:rec%d", owner, i)
		if err := c.GPut(ctx, keys[i], []byte("v-"+keys[i]), gdprkv.PutOptions{
			Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}

	// Operator sequence: destination imports, source migrates.
	src := nodeClient(t, srvs[0].Addr())
	dst := nodeClient(t, srvs[1].Addr())
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}

	// While the keys are still on the source, it serves them directly —
	// no redirect for present keys.
	if v, err := c.GGet(ctx, keys[0]); err != nil || string(v) != "v-"+keys[0] {
		t.Fatalf("GGet during MIGRATING = %q, %v", v, err)
	}
	if asks := c.Stats().Asks; asks != 0 {
		t.Fatalf("present key triggered %d ASKs", asks)
	}
	// A key absent from the source earns an ASK to the destination; the
	// client follows it transparently and maps the miss as usual.
	if _, err := c.GGet(ctx, fmt.Sprintf("pd:{%s}:nope", owner)); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("GGet missing key during MIGRATING = %v, want ErrNotFound", err)
	}
	if asks := c.Stats().Asks; asks != 1 {
		t.Fatalf("Stats.Asks = %d, want exactly 1", asks)
	}

	// Stream the slot. Every record lands on the destination, re-sealed
	// and individually audited; the source keeps one aggregate record.
	mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
	if err != nil || mv.Int != 3 {
		t.Fatalf("MIGRATESLOT = %d, %v; want 3 moved", mv.Int, err)
	}
	for _, k := range keys {
		if stores[0].Engine().Exists(k) {
			t.Errorf("source still holds %s after migration", k)
		}
		if !stores[1].Engine().Exists(k) {
			t.Errorf("destination missing %s after migration", k)
		}
	}
	if meta, err := stores[1].Metadata(core.Ctx{Actor: "app", Purpose: "service"}, keys[0]); err != nil || meta.Owner != owner {
		t.Fatalf("migrated metadata = %+v, %v; want owner %s", meta, err, owner)
	}
	if recs, err := stores[1].Trail().Query(audit.Filter{Op: "RESTOREKEY", Owner: owner}); err != nil || len(recs) != 3 {
		t.Fatalf("destination RESTOREKEY audit records = %d, %v; want 3", len(recs), err)
	}
	aggr, err := stores[0].Trail().Query(audit.Filter{Op: "MIGRATESLOT"})
	if err != nil || len(aggr) != 1 || !strings.Contains(aggr[0].Detail, "moved=3") {
		t.Fatalf("source MIGRATESLOT audit = %+v, %v; want one record with moved=3", aggr, err)
	}

	// The slot map still names the source, so reads and writes now hop via
	// ASK: reads come back from the destination, writes land there.
	if v, err := c.GGet(ctx, keys[0]); err != nil || string(v) != "v-"+keys[0] {
		t.Fatalf("GGet after migration = %q, %v", v, err)
	}
	newKey := fmt.Sprintf("pd:{%s}:late", owner)
	if err := c.GPut(ctx, newKey, []byte("late"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}
	if stores[0].Engine().Exists(newKey) || !stores[1].Engine().Exists(newKey) {
		t.Fatal("ASK-redirected write did not land on the destination")
	}
	if asks := c.Stats().Asks; asks != 3 {
		t.Fatalf("Stats.Asks = %d, want 3 (miss, read, write)", asks)
	}
	// Pipelines follow ASK per-op too.
	res, err := c.Pipeline().GGet(keys[1]).GGet(keys[2]).Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if v, err := r.Bytes(); err != nil || string(v) != "v-"+keys[i+1] {
			t.Fatalf("pipelined GGet %d via ASK = %q, %v", i, v, err)
		}
	}

	// Finalize everywhere; clients converge via one ordinary MOVED.
	for _, srv := range srvs {
		if _, err := nodeClient(t, srv.Addr()).Do(ctx, "CLUSTER", "SETSLOT", ss, "NODE", "n2"); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().Redirects
	if v, err := c.GGet(ctx, keys[0]); err != nil || string(v) != "v-"+keys[0] {
		t.Fatalf("GGet after finalize = %q, %v", v, err)
	}
	if c.Stats().Redirects != before+1 {
		t.Fatalf("Redirects = %d, want %d (one MOVED to converge)", c.Stats().Redirects, before+1)
	}

	// The public topology API reports the new owner and the bumped epoch
	// (IMPORTING then NODE on the destination: epoch 3).
	top, err := dst.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if top.Epoch != 3 {
		t.Errorf("topology epoch = %d, want 3", top.Epoch)
	}
	found := false
	for _, sr := range top.Slots {
		if sr.Start <= slot && slot <= sr.End {
			found = true
			if sr.ID != "n2" {
				t.Errorf("slot %d owner = %s, want n2", slot, sr.ID)
			}
		}
	}
	if !found {
		t.Errorf("slot %d missing from topology %+v", slot, top.Slots)
	}
}

func TestClusterForgetMidMigration(t *testing.T) {
	srvs, stores, m := startCluster(t, 3)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	owner := ownerOn(t, m, "n1")
	slot := cluster.Slot(owner)
	ss := strconv.Itoa(int(slot))
	keys := []string{
		fmt.Sprintf("pd:{%s}:rec0", owner),
		fmt.Sprintf("pd:{%s}:rec1", owner),
	}
	for _, k := range keys {
		if err := c.GPut(ctx, k, []byte("data"), gdprkv.PutOptions{
			Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}

	src := nodeClient(t, srvs[0].Addr())
	dst := nodeClient(t, srvs[1].Addr())
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}
	if mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss); err != nil || mv.Int != 2 {
		t.Fatalf("MIGRATESLOT = %d, %v; want 2", mv.Int, err)
	}
	// One more record arrives mid-window via ASK: it exists only on the
	// destination while the slot map still names the source.
	late := fmt.Sprintf("pd:{%s}:late", owner)
	if err := c.GPut(ctx, late, []byte("late"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}

	// The subject invokes erasure in the middle of the migration. The
	// source no longer holds the subject, so the erasure follows ASK to the
	// destination, which holds all three records and alone records it.
	n, err := c.ForgetUser(ctx, owner)
	if err != nil || n != 3 {
		t.Fatalf("FORGETUSER mid-migration = %d, %v; want 3", n, err)
	}
	for i, st := range stores {
		for _, k := range append(keys, late) {
			if st.Engine().Exists(k) {
				t.Errorf("node %d still holds %s after mid-migration erasure", i+1, k)
			}
		}
		recs, err := st.Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: owner})
		if wantN := map[bool]int{true: 1}[i == 1]; err != nil || len(recs) != wantN {
			t.Errorf("node %d FORGETUSER records = %d, %v; want %d", i+1, len(recs), err, wantN)
		}
	}
	// Reads through the still-open migration window agree the subject is
	// gone (the miss travels via ASK).
	if _, err := c.GGet(ctx, late); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("GGet after erasure = %v, want ErrNotFound", err)
	}
}

// startEnvelopeCluster is startCluster with envelope encryption on, so
// erasure is a crypto-shred and the erasure-wins guarantees of the
// migration protocol are exercised for real.
func startEnvelopeCluster(t *testing.T, n int) ([]*Server, []*core.Store, *cluster.Map) {
	t.Helper()
	return startClusterWith(t, n, core.Config{
		Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true,
		Envelope: true, MasterKey: bytes.Repeat([]byte{0x5a}, 32),
	})
}

func TestClusterForgetDuringMigrationRace(t *testing.T) {
	srvs, stores, m := startEnvelopeCluster(t, 2)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	owner := ownerOn(t, m, "n1")
	slot := cluster.Slot(owner)
	ss := strconv.Itoa(int(slot))
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("pd:{%s}:rec%02d", owner, i)
		if err := c.GPut(ctx, keys[i], []byte("data"), gdprkv.PutOptions{
			Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	src := nodeClient(t, srvs[0].Addr())
	dst := nodeClient(t, srvs[1].Addr())
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}

	// Race the slot stream against the subject's erasure, issued through a
	// second connection. Whatever the interleaving, the erasure runs on the
	// one node that holds the whole subject at that moment: on the source
	// before the subject moves (its records are then dead and never
	// migrate), or on the destination after (via ASK). No record of the
	// subject may survive visibly on either node.
	var wg sync.WaitGroup
	wg.Add(2)
	var migErr, forgetErr error
	var erased int64
	go func() {
		defer wg.Done()
		_, migErr = src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
	}()
	go func() {
		defer wg.Done()
		erased, forgetErr = c.ForgetUser(ctx, owner)
	}()
	wg.Wait()
	if migErr != nil {
		t.Fatalf("MIGRATESLOT racing erasure: %v", migErr)
	}
	// The erasure saw the whole subject on one node.
	if forgetErr != nil || erased != int64(len(keys)) {
		t.Fatalf("FORGETUSER racing migration = %d, %v; want %d", erased, forgetErr, len(keys))
	}

	for i, st := range stores {
		for _, k := range keys {
			// KeyVisible alone is vacuously true for absent keys; a record
			// survived only if its ciphertext is present AND still served.
			if st.Engine().Exists(k) && st.KeyVisible(k) {
				t.Errorf("node %d still serves %s after racing erasure", i+1, k)
			}
		}
	}
	// The node that held the subject records the erasure, and only it.
	recorded := 0
	for _, st := range stores {
		recs, err := st.Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: owner})
		if err != nil {
			t.Fatal(err)
		}
		recorded += len(recs)
	}
	if recorded != 1 {
		t.Errorf("the nodes hold %d FORGETUSER records between them, want 1", recorded)
	}
	// And the client, wherever it is routed, agrees the subject is gone.
	for _, k := range keys {
		if _, err := c.GGet(ctx, k); !errors.Is(err, gdprkv.ErrNotFound) {
			t.Fatalf("GGet %s after racing erasure = %v, want ErrNotFound", k, err)
		}
	}
}

// startClusterWithReplica boots a 3-primary cluster where n1 carries one
// attached replica: announced in the slot map, fed over live replication,
// and ready for promotion.
func startClusterWithReplica(t *testing.T) (srvs []*Server, stores []*core.Store, rsrv *Server, rst *core.Store, m *cluster.Map) {
	t.Helper()
	cfg := core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true}
	open := func() (*core.Store, *Server) {
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
		return st, srv
	}
	srvs = make([]*Server, 3)
	stores = make([]*core.Store, 3)
	for i := range srvs {
		stores[i], srvs[i] = open()
	}
	rst, rsrv = open()

	splits := cluster.EvenSplit(3)
	nodes := []cluster.Node{
		{ID: "n1", Addr: srvs[0].Addr(), Ranges: splits[0], Replicas: []string{rsrv.Addr()}},
		{ID: "n2", Addr: srvs[1].Addr(), Ranges: splits[1]},
		{ID: "n3", Addr: srvs[2].Addr(), Ranges: splits[2]},
	}
	var err error
	m, err = cluster.NewMap(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(ClusterConfig{Self: nodes[i].ID, Map: m}); err != nil {
			t.Fatal(err)
		}
	}
	// The replica announces its primary's identity: same node id, same
	// slots. It redirects reads for them to n1 and is the promotion
	// candidate.
	if err := rsrv.EnableCluster(ClusterConfig{Self: "n1", Map: m}); err != nil {
		t.Fatal(err)
	}

	rc := nodeClient(t, rsrv.Addr())
	host, port, err := net.SplitHostPort(srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.ReplicaOf(context.Background(), host, port); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool {
		n := rsrv.ReplNode()
		return n != nil && n.Status().Link == replica.LinkUp
	}, "cluster replica link never came up")
	return srvs, stores, rsrv, rst, m
}

func TestClusterFailoverPromoteReplica(t *testing.T) {
	srvs, _, rsrv, rst, m := startClusterWithReplica(t)
	ctx := context.Background()
	c := clusterClient(t, srvs)

	owner := ownerOn(t, m, "n1")
	key := fmt.Sprintf("pd:{%s}:profile", owner)
	if err := c.GPut(ctx, key, []byte("precious"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}
	// Wait until the record reaches the replica, then read through the
	// cluster client: the slot has a replica, but the read is served by
	// the primary.
	rc := nodeClient(t, rsrv.Addr())
	testutil.Eventually(t, replWait, 0, func() bool { return rst.Engine().Exists(key) },
		"replication never delivered the record")
	if v, err := c.GGet(ctx, key); err != nil || string(v) != "precious" {
		t.Fatalf("cluster GGet = %q, %v", v, err)
	}
	if n := rsrv.CommandStats().Snapshots()["GGET"].Count; n != 0 {
		t.Fatalf("the announced cluster replica served %d GGETs, want 0", n)
	}
	// Writes against the replica bounce: it is read-only until promoted.
	if err := rc.GPut(ctx, key, []byte("nope"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err == nil ||
		!strings.Contains(err.Error(), "read only replica") {
		t.Fatalf("write on cluster replica = %v, want READONLY", err)
	}

	// The primary dies under live traffic.
	srvs[0].Close()

	// Operator failover: promote the replica, then re-point n1 at it on
	// every surviving node and on the promoted replica itself.
	if err := rc.PromoteToPrimary(ctx); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*gdprkv.Client{rc, nodeClient(t, srvs[1].Addr()), nodeClient(t, srvs[2].Addr())} {
		if _, err := cl.Do(ctx, "CLUSTER", "SETNODE", "n1", rsrv.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// The client's installed topology still names the dead address. The
	// first erasure attempt fails in transport, triggers a failover
	// refresh from a surviving node, and the retry lands on the promoted
	// replica — the erasure is not lost.
	testutil.Eventually(t, replWait, 0, func() bool {
		n, err := c.ForgetUser(ctx, owner)
		return err == nil && n == 1
	}, "erasure never landed after failover")
	if c.Stats().Failovers == 0 {
		t.Fatal("client converged without recording a failover refresh")
	}
	if rst.Engine().Exists(key) {
		t.Fatal("promoted replica still holds the record after erasure")
	}
	recs, err := rst.Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: owner})
	if err != nil || len(recs) == 0 {
		t.Fatalf("promoted replica has no FORGETUSER audit record (%v)", err)
	}
	// Post-failover the cluster serves normally: reads of the erased key
	// miss cleanly and new writes for the slot land on the new primary.
	if _, err := c.GGet(ctx, key); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("GGet after failover = %v, want ErrNotFound", err)
	}
	if err := c.GPut(ctx, key, []byte("fresh"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if !rst.Engine().Exists(key) {
		t.Fatal("post-failover write did not land on the promoted replica")
	}
}

// TestRestoreKeyRefusesJSONRecord: RESTOREKEY takes one journal record
// (GREC, SET or SETEX with its arguments) and nothing else. An earlier
// release's one-argument record, in JSON or in the binary form that
// followed it, is refused with a reply that says to upgrade the source
// first; so are unknown records, wrong arities, malformed metadata and a
// key in a slot this node neither owns nor imports. Each refusal stores
// nothing and writes no OK audit record.
func TestRestoreKeyRefusesJSONRecord(t *testing.T) {
	srvs, stores, m := startCluster(t, 2)
	ctx := context.Background()
	c := nodeClient(t, srvs[0].Addr())
	key := ownerOn(t, m, "n1")
	foreign := ownerOn(t, m, "n2")
	meta := string([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0}) // metadata of nobody
	// The previous release's binary record for KEY (owner alice, purpose
	// billing, value "alice-one"), as its migration encoder wrote it.
	binary, err := hex.DecodeString("0101034b455909616c6963652d6f6e65010405616c696365010762696c6c696e670000000018da660b2be0800000")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"JSON record", []string{`{"key":"` + key + `","value":"dg=="}`}, "upgrade the source node first"},
		{"binary record", []string{string(binary)}, "upgrade the source node first"},
		{"unknown record", []string{"GMETA", key, meta}, "not a migration record"},
		{"GREC without value", []string{"GREC", meta, key}, "not a migration record"},
		{"GREC with two pairs", []string{"GREC", meta, key, "v", key + "2", "v"}, "not a migration record"},
		{"SET with KEEPTTL", []string{"SET", key, "v", "KEEPTTL"}, "not a migration record"},
		{"SETEX without deadline", []string{"SETEX", key, "v"}, "not a migration record"},
		{"malformed metadata", []string{"GREC", "\x01", key, "v"}, "decode metadata"},
		{"JSON metadata", []string{"GREC", `{"owner":"alice"}`, key, "v"}, "retired"},
		{"malformed deadline", []string{"SETEX", key, "soon", "v"}, "cannot parse"},
		{"slot neither owned nor importing", []string{"SET", foreign, "v"}, "neither owned nor importing"},
	} {
		_, err := c.Do(ctx, append([]string{"RESTOREKEY"}, tc.args...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RESTOREKEY = %v; want a refusal containing %q", tc.name, err, tc.want)
		}
	}
	if n := stores[0].Engine().RawLen(); n != 0 {
		t.Fatalf("refused records were stored: %d keys", n)
	}
	if recs, err := stores[0].Trail().Query(audit.Filter{Op: "RESTOREKEY", Outcome: audit.OutcomeOK}); err != nil || len(recs) != 0 {
		t.Fatalf("refused records were audited as restored: %+v, %v", recs, err)
	}
}

// TestClusterGetUserSkipsLaggingReplica: after an acknowledged erasure, a
// rights read while the subject's primary is down must not be served by
// that primary's replica, which may not have applied the erasure. Every
// other primary redirects it to the dead primary, and the replica redirects
// it too.
func TestClusterGetUserSkipsLaggingReplica(t *testing.T) {
	srvs, _, rsrv, rst, m := startClusterWithReplica(t)
	ctx := context.Background()
	owner := ownerOn(t, m, "n1")
	key := fmt.Sprintf("pd:{%s}:rec", owner)
	if err := nodeClient(t, srvs[0].Addr()).GPut(ctx, key, []byte("erased-later"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool { return rst.Engine().Exists(key) },
		"replication never delivered the record")

	// The replica falls behind: its primary is now an address nobody
	// answers, so the erasure below never reaches it.
	rsrv.ReplicaOf("127.0.0.1:1", replica.NodeOptions{})
	if n, err := nodeClient(t, srvs[0].Addr()).ForgetUser(ctx, owner); err != nil || n != 1 {
		t.Fatalf("FORGETUSER = %d, %v; want 1", n, err)
	}
	srvs[0].Close()
	if !rst.Engine().Exists(key) {
		t.Fatal("test premise broken: the lagging replica already dropped the record")
	}

	// The replica names the primary it was last told of.
	primary := fmt.Sprintf("MOVED %d %s", cluster.Slot(owner), srvs[0].Addr())
	for addr, want := range map[string]string{srvs[1].Addr(): primary, srvs[2].Addr(): primary, rsrv.Addr(): "MOVED"} {
		c := nodeClient(t, addr)
		for _, cmd := range []string{"GETUSER", "GETUSERDATA", "EXPORTUSER"} {
			if v, err := c.Do(ctx, cmd, owner); !errors.Is(err, gdprkv.ErrMoved) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at %s after an acknowledged erasure = %v, %v; want %q", cmd, addr, v, err, want)
			}
		}
	}
}

// TestClusterReplicaRedirectsErasedRead: a replica cut off from its
// primary still holds a subject whose erasure the primary has
// acknowledged. A client that dials the replica directly must not read
// it: GGET answers MOVED naming the primary, and no byte of the value
// crosses the wire.
func TestClusterReplicaRedirectsErasedRead(t *testing.T) {
	srvs, _, rsrv, rst, m := startClusterWithReplica(t)
	ctx := context.Background()
	owner := ownerOn(t, m, "n1")
	key := fmt.Sprintf("pd:{%s}:rec", owner)
	if err := nodeClient(t, srvs[0].Addr()).GPut(ctx, key, []byte("erased-later"), gdprkv.PutOptions{
		Owner: owner, Purposes: []string{"service"}}); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, replWait, 0, func() bool { return rst.Engine().Exists(key) },
		"replication never delivered the record")

	// The replica's link goes down; it stays a replica of n1.
	rsrv.ReplNode().Close()
	if n, err := nodeClient(t, srvs[0].Addr()).ForgetUser(ctx, owner); err != nil || n != 1 {
		t.Fatalf("FORGETUSER = %d, %v; want 1", n, err)
	}
	if !rst.Engine().Exists(key) {
		t.Fatal("test premise broken: the lagging replica already dropped the record")
	}

	v, err := nodeClient(t, rsrv.Addr()).Do(ctx, "GGET", key)
	want := fmt.Sprintf("%d %s", cluster.Slot(key), srvs[0].Addr())
	var se *gdprkv.ServerError
	if !errors.Is(err, gdprkv.ErrMoved) || !errors.As(err, &se) || se.Message != want {
		t.Fatalf("GGET on the lagging replica = %q, %v; want MOVED %s", v.Str, err, want)
	}
	if strings.Contains(string(v.Str), "erased-later") {
		t.Fatalf("the erased value crossed the wire: %q", v.Str)
	}
}

// TestClusterReplicaRedirectsEveryDataRead walks the registry: on a
// replica, every command that is not a write but reads the keyspace, the
// owner index or the trail (FlagGDPR or FlagNoCompliance) answers MOVED
// to the primary, on its first key's slot or slot 0. Introspection still
// answers.
func TestClusterReplicaRedirectsEveryDataRead(t *testing.T) {
	srvs, _, rsrv, _, m := startClusterWithReplica(t)
	ctx := context.Background()
	rc := nodeClient(t, rsrv.Addr())
	// A key in n1's slots, so no cluster redirect can stand in for the
	// replica's own.
	key := fmt.Sprintf("pd:{%s}:k", ownerOn(t, m, "n1"))
	checked := map[string]bool{}
	for _, name := range commandNames() {
		cmd := commandTable[name]
		if cmd.Flags&FlagWrite != 0 || cmd.Flags&(FlagGDPR|FlagNoCompliance) == 0 {
			continue
		}
		args := make([]string, cmd.MinArgs)
		for i := range args {
			args[i] = key
		}
		var slot uint16
		if cmd.Keys != nil {
			slot = cluster.Slot(key)
		}
		want := fmt.Sprintf("%d %s", slot, srvs[0].Addr())
		_, err := rc.Do(ctx, append([]string{name}, args...)...)
		var se *gdprkv.ServerError
		if !errors.Is(err, gdprkv.ErrMoved) || !errors.As(err, &se) || se.Message != want {
			t.Errorf("%s on a replica = %v; want MOVED %s", name, err, want)
		}
		checked[name] = true
	}
	for _, name := range []string{"GET", "SCAN", "GGET", "GETUSER", "BREACH"} {
		if !checked[name] {
			t.Errorf("%s was not checked: the registry filter lost it", name)
		}
	}
	if err := rc.Ping(ctx); err != nil {
		t.Errorf("PING on a replica: %v", err)
	}
	if _, err := rc.Info(ctx, "replication"); err != nil {
		t.Errorf("INFO on a replica: %v", err)
	}
	if _, err := rc.Topology(ctx); err != nil {
		t.Errorf("CLUSTER TOPOLOGY on a replica: %v", err)
	}
}

// startOwnerMigration starts two nodes that enforce purposes (full
// capability, ACL enforcement off) and writes two of a subject's records,
// tagged with its slot, on n1, which then takes OBJECT owner billing. The
// subject's slot is left IMPORTING on n2 and MIGRATING on n1.
func startOwnerMigration(t *testing.T) (srvs []*Server, stores []*core.Store, owner, ss string, keys []string) {
	t.Helper()
	srvs, stores, m := startClusterWith(t, 2, core.Config{
		Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true, EnforceACL: core.Ptr(false),
	})
	ctx := context.Background()
	owner = ownerOn(t, m, "n1")
	ss = strconv.Itoa(int(cluster.Slot(owner)))
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	keys = []string{fmt.Sprintf("pd:{%s}:1", owner), fmt.Sprintf("pd:{%s}:2", owner)}
	for _, k := range keys {
		if err := src.GPut(ctx, k, []byte("v"), gdprkv.PutOptions{Owner: owner, Purposes: []string{"billing", "service"}, TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		c   *gdprkv.Client
		cmd []string
	}{
		{src, []string{"OBJECT", owner, "billing"}},
		{dst, []string{"CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"}},
		{src, []string{"CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"}},
	} {
		if _, err := step.c.Do(ctx, step.cmd...); err != nil {
			t.Fatalf("%v: %v", step.cmd, err)
		}
	}
	return srvs, stores, owner, ss, keys
}

// TestClusterMigrationCarriesObjection: a slot migration moves the
// subject's owner record with its keys, so on a destination that never saw
// the OBJECT a new record and an overwrite of a migrated one, both sent
// there with ASK mid-migration, still object, and a read under the objected
// purpose is refused there. The source keeps no copy, and its MIGRATESLOT
// audit record counts the owner record carried.
func TestClusterMigrationCarriesObjection(t *testing.T) {
	srvs, stores, owner, ss, keys := startOwnerMigration(t)
	ctx := context.Background()
	if mv, err := nodeClient(t, srvs[0].Addr()).Do(ctx, "CLUSTER", "MIGRATESLOT", ss); err != nil || mv.Int != 2 {
		t.Fatalf("MIGRATESLOT = %d, %v; want 2 moved", mv.Int, err)
	}
	if got := stores[1].Objections(owner); !reflect.DeepEqual(got, []string{"billing"}) {
		t.Errorf("n2: %s objects to %v, want [billing]", owner, got)
	}
	if got := stores[0].Objections(owner); got != nil || len(stores[0].SubjectKeys(owner, 1)) != 0 {
		t.Errorf("n1 still holds %s (objections %v) after the migration", owner, got)
	}
	c := clusterClient(t, srvs)
	written := []string{fmt.Sprintf("pd:{%s}:new", owner), keys[0]}
	for _, k := range written {
		if err := c.GPut(ctx, k, []byte("w"), gdprkv.PutOptions{Owner: owner, Purposes: []string{"billing", "service"}, TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	if asks := c.Stats().Asks; asks != 2 {
		t.Fatalf("Stats.Asks = %d, want 2 (both writes sent to n2)", asks)
	}
	for _, srv := range srvs {
		if _, err := nodeClient(t, srv.Addr()).Do(ctx, "CLUSTER", "SETSLOT", ss, "NODE", "n2"); err != nil {
			t.Fatal(err)
		}
	}
	dst := nodeClient(t, srvs[1].Addr())
	if _, err := dst.Do(ctx, "PURPOSE", "billing"); err != nil {
		t.Fatal(err)
	}
	for _, k := range append(written, keys[1]) {
		if v, err := dst.GGet(ctx, k); !errors.Is(err, gdprkv.ErrBadPurpose) {
			t.Errorf("GGET %s under the objected purpose on n2 = %q, %v; want ErrBadPurpose", k, v, err)
		}
	}
	if _, err := dst.Do(ctx, "PURPOSE", "service"); err != nil {
		t.Fatal(err)
	}
	if v, err := dst.GGet(ctx, written[0]); err != nil || string(v) != "w" {
		t.Fatalf("GGET %s under service on n2 = %q, %v", written[0], v, err)
	}
	aggr, err := stores[0].Trail().Query(audit.Filter{Op: "MIGRATESLOT"})
	if err != nil || len(aggr) != 1 || !strings.Contains(aggr[0].Detail, "owners=1 moved=2") {
		t.Fatalf("source MIGRATESLOT audit = %+v, %v; want owners=1 moved=2", aggr, err)
	}
}

// TestClusterMigrationRefusedWithoutRights: RESTOREKEY is an admin command
// on the destination, and the owner record goes ahead of the subject's
// records. A principal that is no controller there, a processor granted
// every purpose, has its migration refused at the owner record, with no
// key moved, and both ends audit the refusal.
func TestClusterMigrationRefusedWithoutRights(t *testing.T) {
	srvs, stores, owner, ss, keys := startOwnerMigration(t)
	ctx := context.Background()
	stores[0].ACL().AddPrincipal(acl.Principal{ID: "ops", Role: acl.RoleController})
	stores[1].ACL().AddPrincipal(acl.Principal{ID: "ops", Role: acl.RoleProcessor})
	if err := stores[1].ACL().AddGrant(acl.Grant{Principal: "ops", Purpose: "*"}); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st.ACL().SetEnforce(true)
	}
	src := nodeClient(t, srvs[0].Addr())
	if _, err := src.Do(ctx, "AUTH", "ops"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "PURPOSE", "service"); err != nil {
		t.Fatal(err)
	}
	if mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss); err == nil {
		t.Fatalf("MIGRATESLOT by a principal without rights = %d, want a refusal", mv.Int)
	}
	for _, k := range keys {
		if !stores[0].Engine().Exists(k) || stores[1].Engine().Exists(k) {
			t.Fatalf("%s moved by a refused migration", k)
		}
	}
	if got := stores[1].Objections(owner); got != nil {
		t.Fatalf("n2: %s objects to %v after the refusal, want none", owner, got)
	}
	if recs, err := stores[1].Trail().Query(audit.Filter{Op: "RESTOREKEY", Actor: "ops", Outcome: audit.OutcomeDenied}); err != nil || len(recs) != 1 {
		t.Fatalf("n2 denied RESTOREKEY audit records = %d, %v; want 1 (the owner record, ahead of the two keys)", len(recs), err)
	}
	aggr, err := stores[0].Trail().Query(audit.Filter{Op: "MIGRATESLOT", Outcome: audit.OutcomeError})
	if err != nil || len(aggr) != 1 || !strings.Contains(aggr[0].Detail, "owners=0 moved=0") {
		t.Fatalf("n1 MIGRATESLOT error audit = %+v, %v; want owners=0 moved=0", aggr, err)
	}
}

// TestClusterMigrationKeepsOwnerRecordUntilRecordsMove: the owner record,
// the one place a subject's objections live, lands on the destination ahead
// of the subject's records and leaves the source only after them. A
// destination that takes the owner record and refuses the records (here an
// owner name too long for the key file's slots, on the one node with
// envelope encryption) fails the migration with the records and the
// objection still together on the source.
func TestClusterMigrationKeepsOwnerRecordUntilRecordsMove(t *testing.T) {
	plain := core.Config{Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true, EnforceACL: core.Ptr(false)}
	sealed := plain
	sealed.Envelope, sealed.MasterKey = true, bytes.Repeat([]byte{7}, 32)
	srvs, stores, m := startClusterOf(t, plain, sealed)
	ctx := context.Background()
	owner := ""
	for i := 0; owner == ""; i++ {
		if o := fmt.Sprintf("%s%d", strings.Repeat("o", 160), i); m.NodeForKey(o).ID == "n1" {
			owner = o
		}
	}
	ss := strconv.Itoa(int(cluster.Slot(owner)))
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	keys := []string{fmt.Sprintf("pd:{%s}:1", owner), fmt.Sprintf("pd:{%s}:2", owner)}
	for _, k := range keys {
		if err := src.GPut(ctx, k, []byte("v"), gdprkv.PutOptions{Owner: owner, Purposes: []string{"billing", "service"}, TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		c   *gdprkv.Client
		cmd []string
	}{
		{src, []string{"OBJECT", owner, "billing"}},
		{dst, []string{"CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"}},
		{src, []string{"CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"}},
	} {
		if _, err := step.c.Do(ctx, step.cmd...); err != nil {
			t.Fatalf("%v: %v", step.cmd, err)
		}
	}
	if _, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss); err == nil {
		t.Fatal("MIGRATESLOT succeeded with every record refused on the destination")
	}
	if got := stores[0].Objections(owner); !reflect.DeepEqual(got, []string{"billing"}) {
		t.Fatalf("n1 keeps its records but objects to %v, want [billing]", got)
	}
	for _, k := range keys {
		if !stores[0].Engine().Exists(k) || stores[1].Engine().Exists(k) {
			t.Fatalf("%s moved by a failed migration", k)
		}
	}
}

// ownersInSlot returns n owner names that hash to slot.
func ownersInSlot(t *testing.T, slot uint16, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 1000000; i++ {
		if o := fmt.Sprintf("owner%06d", i); cluster.Slot(o) == slot {
			out = append(out, o)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d owners in slot %d, want %d", len(out), slot, n)
	}
	return out
}

// startSubjectsMigration writes records tagged records for each of
// subjects owners sharing one of n1's slots, and leaves that slot
// IMPORTING on n2 and MIGRATING on n1. It returns the owners, the slot as
// a CLUSTER argument and a client of n1.
func startSubjectsMigration(t *testing.T, srvs []*Server, m *cluster.Map, subjects, records int) ([]string, string, *gdprkv.Client) {
	t.Helper()
	ctx := context.Background()
	slot := cluster.Slot(ownerOn(t, m, "n1"))
	owners := ownersInSlot(t, slot, subjects)
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	for _, o := range owners {
		p := src.Pipeline()
		for i := 0; i < records; i++ {
			p.GPut(fmt.Sprintf("pd:{%s}:%03d", o, i), []byte("v"), gdprkv.PutOptions{Owner: o, Purposes: []string{"service"}})
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
	ss := strconv.Itoa(int(slot))
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}
	return owners, ss, src
}

// TestClusterGetUserRacingMigration: GETUSERs issued while MIGRATESLOT
// moves their subjects each see the whole subject, on the one node that
// holds it at that moment, never a part of it on either node.
func TestClusterGetUserRacingMigration(t *testing.T) {
	srvs, _, m := startCluster(t, 2)
	ctx := context.Background()
	const subjects, records = 8, 40
	owners, ss, src := startSubjectsMigration(t, srvs, m, subjects, records)
	c := clusterClient(t, srvs)

	const readers = 4
	done := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				o := owners[i%len(owners)]
				recs, err := c.GetUser(ctx, o)
				if err != nil || len(recs) != records {
					t.Errorf("GETUSER %s during the migration = %d records, %v; want %d", o, len(recs), err, records)
					once.Do(func() { close(started) })
					return
				}
				if reads.Add(1) >= readers {
					once.Do(func() { close(started) })
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	<-started
	mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
	close(done)
	wg.Wait()
	if err != nil || mv.Int != subjects*records {
		t.Fatalf("MIGRATESLOT = %d, %v; want %d", mv.Int, err, subjects*records)
	}
	for _, o := range owners {
		if recs, err := c.GetUser(ctx, o); err != nil || len(recs) != records {
			t.Fatalf("GETUSER %s after the migration = %d records, %v; want %d", o, len(recs), err, records)
		}
	}
	t.Logf("%d GETUSERs raced the migration; %d followed ASK", reads.Load(), c.Stats().Asks)
}

// TestClusterUnobjectDuringMigration: an UNOBJECT issued while MIGRATESLOT
// moves its subject is never undone. It runs on the one node that holds
// the subject, and the owner record moves whole, so no stale copy of the
// objection comes back on either node or on any migrated record.
func TestClusterUnobjectDuringMigration(t *testing.T) {
	srvs, stores, m := startCluster(t, 2)
	ctx := context.Background()
	const subjects, records = 8, 20
	owners, ss, src := startSubjectsMigration(t, srvs, m, subjects, records)
	c := clusterClient(t, srvs)
	for _, o := range owners {
		if err := c.Object(ctx, o, "billing"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, o := range owners {
			if err := c.Unobject(ctx, o, "billing"); err != nil {
				t.Errorf("UNOBJECT %s during the migration: %v", o, err)
			}
		}
	}()
	mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
	wg.Wait()
	if err != nil || mv.Int != subjects*records {
		t.Fatalf("MIGRATESLOT = %d, %v; want %d", mv.Int, err, subjects*records)
	}
	for _, o := range owners {
		for i, st := range stores {
			if got := st.Objections(o); got != nil {
				t.Errorf("node %d: %s objects to %v after the withdrawal", i+1, o, got)
			}
		}
		meta, err := stores[1].Metadata(core.Ctx{Actor: "app", Purpose: "service"}, fmt.Sprintf("pd:{%s}:000", o))
		if err != nil || len(meta.Objections) != 0 {
			t.Errorf("migrated record of %s objects to %v, %v; want none", o, meta.Objections, err)
		}
	}
}

// TestRestoreKeyWithdrawalNeedsRights: RESTOREKEY cannot withdraw an
// objection for a principal that may only write: it is an admin command,
// so a processor restores no record at all, and an owner record, which
// replaces the subject's standing objections whatever it holds, stays a
// rights operation in the core. An ordinary record a controller restores is
// stored objecting to what the subject objects to here, as a GPUT would be.
// Both hold on a standalone server, where no slot check runs.
func TestRestoreKeyWithdrawalNeedsRights(t *testing.T) {
	cfg := core.Config{Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true}
	srv, ctl := startServer(t, cfg)
	st := srv.store
	const owner = "eve"
	for _, cmd := range [][]string{
		{"AUTH", "controller"},
		{"ACL", "ADDPRINCIPAL", "svc", "processor"},
		{"ACL", "GRANT", "svc", "service"},
		{"PURPOSE", "service"},
		{"GPUT", "pd:{eve}:1", "v", "OWNER", owner, "PURPOSES", "service,ads", "TTL", "3600"},
		{"OBJECT", owner, "ads"},
	} {
		if _, err := ctl.Do(cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	// The records a source node would send: eve's record with no objection,
	// and her owner record, which stands on another objection than ads.
	aux, err := core.Open(core.Config{Compliant: true, Capability: core.CapabilityFull, EnforceACL: core.Ptr(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer aux.Close()
	actx := core.Ctx{Actor: "app", Purpose: "service"}
	if err := aux.Put(actx, "pd:{eve}:2", []byte("w"), core.PutOptions{Owner: owner, Purposes: []string{"service", "ads"}, TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	dump := func(key string) []string {
		rec, _, ok, err := aux.DumpForMigration(key)
		if err != nil || !ok {
			t.Fatalf("dump %q = %v, %v", key, ok, err)
		}
		args := []string{"RESTOREKEY"}
		for _, a := range rec {
			args = append(args, string(a))
		}
		return args
	}
	record := dump("pd:{eve}:2")
	if err := aux.Object(actx, owner, "marketing"); err != nil {
		t.Fatal(err)
	}
	ownerKey := aux.SubjectKeys(owner, 1)[0]
	ownerRecords := [][]string{
		dump(ownerKey),
		{"RESTOREKEY", "GREC", string([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0}), ownerKey, ""}, // no objection at all
	}

	svc := tdial(t, srv.Addr())
	if err := svc.Auth("svc"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Purpose("service"); err != nil {
		t.Fatal(err)
	}
	for _, args := range append(ownerRecords, record) {
		if _, err := svc.Do(args...); !errors.Is(err, gdprkv.ErrDenied) {
			t.Fatalf("RESTOREKEY by a writer = %v, want ErrDenied", err)
		}
		if got := st.Objections(owner); !reflect.DeepEqual(got, []string{"ads"}) {
			t.Fatalf("%s objects to %v after the refused restore, want [ads]", owner, got)
		}
	}
	if st.Exists("pd:{eve}:2") {
		t.Fatal("a refused RESTOREKEY stored its record")
	}
	// Past the gate, the core refuses the writer each owner record too.
	for _, args := range ownerRecords {
		argv := make([][]byte, 0, len(args)-1)
		for _, a := range args[1:] {
			argv = append(argv, []byte(a))
		}
		if err := st.RestoreRecord(core.Ctx{Actor: "svc", Purpose: "service"}, argv, nil); !errors.Is(err, core.ErrDenied) {
			t.Fatalf("core RestoreRecord of an owner record by a writer = %v, want ErrDenied", err)
		}
	}
	if _, err := ctl.Do(record...); err != nil {
		t.Fatalf("RESTOREKEY of a record by the controller: %v", err)
	}
	if err := ctl.Purpose("ads"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pd:{eve}:1", "pd:{eve}:2"} {
		if v, err := ctl.SDK().GGet(ctxb(), k); !errors.Is(err, gdprkv.ErrBadPurpose) {
			t.Errorf("GGET %s under the objected purpose = %q, %v; want ErrBadPurpose", k, v, err)
		}
	}
}

// TestClusterMigrationStopsOnErasedDestination: a destination that keeps a
// shred mark for a subject of the slot (it erased the subject before the
// slot last left it) refuses the subject's owner record and records with
// ERASED, and the migration fails with the subject whole on the source,
// where rights commands still reach it. Skipping the records would leave
// live personal data on a node no rights command routes to after the
// finalize.
func TestClusterMigrationStopsOnErasedDestination(t *testing.T) {
	srvs, stores, m := startEnvelopeCluster(t, 2)
	ctx := context.Background()
	owner := ownerOn(t, m, "n1")
	ss := strconv.Itoa(int(cluster.Slot(owner)))
	if _, err := stores[1].Forget(core.Ctx{Actor: "app", Purpose: "service"}, owner); err != nil {
		t.Fatal(err)
	}
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	keys := []string{fmt.Sprintf("pd:{%s}:1", owner), fmt.Sprintf("pd:{%s}:2", owner)}
	for _, k := range keys {
		if err := src.GPut(ctx, k, []byte("v"), gdprkv.PutOptions{Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		c   *gdprkv.Client
		cmd []string
	}{
		{src, []string{"OBJECT", owner, "billing"}},
		{dst, []string{"CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"}},
		{src, []string{"CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"}},
	} {
		if _, err := step.c.Do(ctx, step.cmd...); err != nil {
			t.Fatalf("%v: %v", step.cmd, err)
		}
	}
	if mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss); err == nil || !strings.Contains(err.Error(), "ERASED") {
		t.Fatalf("MIGRATESLOT onto a destination that shredded the owner = %d, %v; want an ERASED failure", mv.Int, err)
	}
	if got := len(stores[0].SubjectKeys(owner, -1)); got != 1+len(keys) {
		t.Fatalf("n1 holds %d of the subject's keys after the refused migration, want %d", got, 1+len(keys))
	}
	if got := stores[1].SubjectKeys(owner, -1); len(got) != 0 {
		t.Fatalf("n2 holds %q of the refused subject", got)
	}
	if recs, err := src.GetUser(ctx, owner); err != nil || len(recs) != len(keys) {
		t.Fatalf("GETUSER on n1 after the refused migration = %d records, %v; want %d", len(recs), err, len(keys))
	}
	aggr, err := stores[0].Trail().Query(audit.Filter{Op: "MIGRATESLOT", Outcome: audit.OutcomeError})
	if err != nil || len(aggr) != 1 || !strings.Contains(aggr[0].Detail, "owners=0 moved=0") {
		t.Fatalf("n1 MIGRATESLOT error audit = %+v, %v; want owners=0 moved=0", aggr, err)
	}
}

// TestClusterMigrationCarriesErasure: an erased subject's owner record
// moves with its slot, so the node that owns the slot after the migration
// refuses the subject's writes with ERASED, as the source did before it.
func TestClusterMigrationCarriesErasure(t *testing.T) {
	srvs, stores, m := startEnvelopeCluster(t, 2)
	ctx := context.Background()
	owner := ownerOn(t, m, "n1")
	ss := strconv.Itoa(int(cluster.Slot(owner)))
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	put := func(c *gdprkv.Client) error {
		return c.GPut(ctx, fmt.Sprintf("pd:{%s}:1", owner), []byte("v"), gdprkv.PutOptions{Owner: owner, Purposes: []string{"service"}})
	}
	if err := put(src); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ForgetUser(ctx, owner); err != nil {
		t.Fatal(err)
	}
	stores[0].DrainErasure()
	if err := put(src); !errors.Is(err, gdprkv.ErrErased) {
		t.Fatalf("GPUT on n1 after FORGETUSER: %v, want ERASED", err)
	}
	for _, step := range []struct {
		c   *gdprkv.Client
		cmd []string
	}{
		{dst, []string{"CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"}},
		{src, []string{"CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"}},
		{src, []string{"CLUSTER", "MIGRATESLOT", ss}},
		{src, []string{"CLUSTER", "SETSLOT", ss, "NODE", "n2"}},
		{dst, []string{"CLUSTER", "SETSLOT", ss, "NODE", "n2"}},
	} {
		if _, err := step.c.Do(ctx, step.cmd...); err != nil {
			t.Fatalf("%v: %v", step.cmd, err)
		}
	}
	if err := put(dst); !errors.Is(err, gdprkv.ErrErased) {
		t.Fatalf("GPUT on n2 after the migration: %v, want ERASED", err)
	}
}

// TestClusterUnreadReplyDoesNotBlockMigration: a GETUSER whose client stops
// reading a reply larger than the socket buffers holds up no migration of
// its slot. The reply meets the socket only after the cluster stage has
// released the slot's migration lock, so MIGRATESLOT takes the lock and
// moves the subject while the reply is still unread.
func TestClusterUnreadReplyDoesNotBlockMigration(t *testing.T) {
	srvs, _, m := startCluster(t, 2)
	ctx := context.Background()
	owner := ownerOn(t, m, "n1")
	ss := strconv.Itoa(int(cluster.Slot(owner)))
	src, dst := nodeClient(t, srvs[0].Addr()), nodeClient(t, srvs[1].Addr())
	const records = 128
	value := bytes.Repeat([]byte("x"), 64<<10)
	p := src.Pipeline()
	for i := 0; i < records; i++ {
		p.GPut(fmt.Sprintf("pd:{%s}:%03d", owner, i), value, gdprkv.PutOptions{Owner: owner, Purposes: []string{"service"}})
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
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		t.Fatal(err)
	}
	// A reader with a small receive buffer that takes the reply's first
	// bytes, so the GETUSER has run, and then stops reading.
	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096)
		}); err != nil {
			return err
		}
		return serr
	}}
	conn, err := d.Dial("tcp", srvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "*2\r\n$7\r\nGETUSER\r\n$%d\r\n%s\r\n", len(owner), owner); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		mv, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
		if err == nil && mv.Int != records {
			err = fmt.Errorf("moved %d, want %d", mv.Int, records)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("MIGRATESLOT beside an unread GETUSER reply: %v", err)
		}
	case <-time.After(10 * time.Second):
		conn.Close() // releases a handler blocked on the socket
		t.Fatal("MIGRATESLOT still waits on the slot lock behind an unread GETUSER reply")
	}
}
