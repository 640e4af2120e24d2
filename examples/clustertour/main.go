// Clustertour: hash-slot cluster mode end to end. Three primaries run
// in-process over real TCP, each owning a third of the 1024-slot space.
// One cluster-aware pkg/gdprkv client bootstraps the slot map via
// CLUSTER TOPOLOGY and routes every key to its owner; a deliberately
// mis-routed GET is redirected transparently, exactly once. Then the
// GDPR part: a subject lives in one slot. An untagged compliant write is
// refused with CROSSSLOT; the subject's tagged records land on one node,
// which alone answers GETUSER and FORGETUSER, alone audits the erasure,
// and proves with GETUSERDATA and INFO commandstats that nothing was left
// behind, while every other node redirects the right to it. The finale is
// elasticity: a slot is migrated
// live from n1 to n2 through the CLUSTER SETSLOT/MIGRATESLOT admin
// surface while the client keeps reading — in-flight requests hop via
// one-shot ASK redirects, the finalized map converges with exactly one
// MOVED, and the topology epoch records the change. Run with:
//
//	go run ./examples/clustertour
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"

	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
	"gdprstore/pkg/gdprkv"
)

func main() {
	ctx := context.Background()
	cfg := core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true}

	// --- three primaries, each owning a contiguous third of the slots ---
	const n = 3
	stores := make([]*core.Store, n)
	srvs := make([]*server.Server, n)
	nodes := make([]cluster.Node, n)
	splits := cluster.EvenSplit(n)
	for i := 0; i < n; i++ {
		st, err := core.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		srv, err := server.Listen("127.0.0.1:0", st)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		stores[i], srvs[i] = st, srv
		nodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: srv.Addr(), Ranges: splits[i]}
	}
	m, err := cluster.NewMap(nodes)
	if err != nil {
		log.Fatal(err)
	}
	for i, srv := range srvs {
		if err := srv.EnableCluster(server.ClusterConfig{Self: nodes[i].ID, Map: m}); err != nil {
			log.Fatal(err)
		}
	}
	for _, nd := range nodes {
		fmt.Printf("%s %s slots %v\n", nd.ID, nd.Addr, nd.Ranges)
	}

	// --- one cluster client for the whole fleet ---
	c, err := gdprkv.Dial(ctx, nodes[0].Addr, gdprkv.WithCluster(nodes[1].Addr, nodes[2].Addr))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Owner-tagged writes: each owner's records co-locate on the owner's
	// slot, and different owners spread across the fleet.
	owners := []string{ownerOn(m, "n1"), ownerOn(m, "n2"), ownerOn(m, "n3")}
	for _, o := range owners {
		for r := 0; r < 3; r++ {
			key := fmt.Sprintf("pd:{%s}:rec%d", o, r)
			if err := c.GPut(ctx, key, []byte(o+"-data"), gdprkv.PutOptions{
				Owner: o, Purposes: []string{"service"},
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("\nkeys per node after 9 owner-tagged GPUTs (3 owners x 3 records):")
	for i, st := range stores {
		fmt.Printf("  %s dbsize=%d\n", nodes[i].ID, st.Engine().Len())
	}
	fmt.Printf("CLUSTER SLOTS served %d ranges; client followed %d redirects so far\n",
		len(mustSlots(ctx, c)), c.Stats().Redirects)

	// --- a mis-routed GET, redirected exactly once ---
	// Do carries no key knowledge, so the client sends it to its default
	// (bootstrap) node n1. The key below lives on n3: n1 answers
	// "MOVED <slot> <n3-addr>" and the client follows it transparently.
	key3 := fmt.Sprintf("pd:{%s}:rec0", owners[2])
	v, err := c.Do(ctx, "GGET", key3)
	if err != nil {
		log.Fatal(err)
	}
	st := c.Stats()
	fmt.Printf("\nmis-routed GGET %s = %q (redirects=%d, slot map refreshes=%d)\n",
		key3, v.Text(), st.Redirects, st.SlotRefreshes)
	if st.Redirects != 1 {
		log.Fatalf("expected exactly one redirect, saw %d", st.Redirects)
	}

	// --- a subject lives in one slot: tagged keys, one node answers ---
	// In cluster mode a compliant key must hash to its owner's slot. An
	// untagged key hashes on its own, so the write is refused before
	// anything is stored or audited as done.
	untagged := keyOn(m, "n1", "dave-doc-%d")
	err = c.GPut(ctx, untagged, []byte("dave-data"), gdprkv.PutOptions{Owner: "dave", Purposes: []string{"service"}})
	if !errors.Is(err, gdprkv.ErrCrossSlot) {
		log.Fatalf("untagged GPUT for dave = %v, want ErrCrossSlot", err)
	}
	fmt.Printf("\nuntagged GPUT %s for dave refused: %v\n", untagged, err)
	var daveKeys []string
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("pd:{dave}:doc-%d", i)
		daveKeys = append(daveKeys, k)
		if err := c.GPut(ctx, k, []byte("dave-data"), gdprkv.PutOptions{
			Owner: "dave", Purposes: []string{"service"},
		}); err != nil {
			log.Fatal(err)
		}
	}
	home := m.NodeForKey("dave")
	fmt.Printf("wrote %d tagged records for dave, all in slot %d on %s: %v\n",
		len(daveKeys), cluster.Slot("dave"), home.ID, daveKeys)

	recs, err := c.GetUser(ctx, "dave")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GETUSER dave returns %d records from %s\n", len(recs), home.ID)

	erased, err := c.ForgetUser(ctx, "dave")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FORGETUSER dave erased %d records on %s\n\n", erased, home.ID)

	// Proof, node by node: dave's node answers GETUSERDATA with no records
	// and alone holds the audit record of the erasure; every other node
	// redirects the right to it.
	for i, srv := range srvs {
		nc, err := gdprkv.Dial(ctx, srv.Addr(), gdprkv.WithPoolSize(1))
		if err != nil {
			log.Fatal(err)
		}
		gv, err := nc.Do(ctx, "GETUSERDATA", "dave")
		audits, _ := stores[i].Trail().Query(audit.Filter{Op: "FORGETUSER", Owner: "dave"})
		info, _ := nc.Info(ctx, "commandstats")
		isHome := nodes[i].ID == home.ID
		if isHome && (err != nil || len(gv.Array) != 0 || len(audits) != 1) || !isHome && (!errors.Is(err, gdprkv.ErrMoved) || len(audits) != 0) {
			log.Fatalf("%s: GETUSERDATA dave = %d records, %v; %d audit records", nodes[i].ID, len(gv.Array), err, len(audits))
		}
		fmt.Printf("  %s: GETUSERDATA dave -> %d records, err=%v, audit records=%d, %s\n",
			nodes[i].ID, len(gv.Array), err, len(audits), forgetStats(info))
		nc.Close()
	}
	if _, err := c.GGet(ctx, daveKeys[0]); !errors.Is(err, gdprkv.ErrNotFound) {
		log.Fatalf("post-erasure read = %v, want ErrNotFound", err)
	}
	fmt.Println("\npost-erasure reads are errors.Is(err, gdprkv.ErrNotFound)")

	// --- live slot migration under traffic ---
	// Move the first owner's slot from n1 to n2 while the same cluster
	// client keeps reading. Destination imports, source migrates, the slot
	// streams across, and until the map is finalized every request for the
	// moved keys hops via a one-shot ASK redirect.
	slot := cluster.Slot(owners[0])
	ss := fmt.Sprintf("%d", slot)
	src, err := gdprkv.Dial(ctx, srvs[0].Addr(), gdprkv.WithPoolSize(1))
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	dst, err := gdprkv.Dial(ctx, srvs[1].Addr(), gdprkv.WithPoolSize(1))
	if err != nil {
		log.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.Do(ctx, "CLUSTER", "SETSLOT", ss, "IMPORTING", "n1"); err != nil {
		log.Fatal(err)
	}
	if _, err := src.Do(ctx, "CLUSTER", "SETSLOT", ss, "MIGRATING", "n2"); err != nil {
		log.Fatal(err)
	}
	moved, err := src.Do(ctx, "CLUSTER", "MIGRATESLOT", ss)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCLUSTER MIGRATESLOT %s streamed %d records n1 -> n2\n", ss, moved.Int)

	// The client's map still names n1, so a read of a migrated key earns
	// exactly one ASK: n1 answers "ASK <slot> <n2-addr>", the client
	// replays the command there one-shot, and the slot map is NOT updated
	// (ASK is per-request; only MOVED rewrites the map).
	hotKey := fmt.Sprintf("pd:{%s}:rec0", owners[0])
	asksBefore := c.Stats().Asks
	if v, err := c.GGet(ctx, hotKey); err != nil || string(v) != owners[0]+"-data" {
		log.Fatalf("GGet during migration = %q, %v", v, err)
	}
	fmt.Printf("mid-migration GGet %s served via ASK (asks=%d -> %d)\n",
		hotKey, asksBefore, c.Stats().Asks)
	if c.Stats().Asks != asksBefore+1 {
		log.Fatalf("expected exactly one ASK, saw %d", c.Stats().Asks-asksBefore)
	}

	// Finalize on every node; the client converges via one ordinary MOVED
	// and the destination's topology epoch records the whole exchange.
	for _, srv := range srvs {
		nc, err := gdprkv.Dial(ctx, srv.Addr(), gdprkv.WithPoolSize(1))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := nc.Do(ctx, "CLUSTER", "SETSLOT", ss, "NODE", "n2"); err != nil {
			log.Fatal(err)
		}
		nc.Close()
	}
	redirBefore := c.Stats().Redirects
	if _, err := c.GGet(ctx, hotKey); err != nil {
		log.Fatal(err)
	}
	if c.Stats().Redirects != redirBefore+1 {
		log.Fatalf("expected exactly one MOVED to converge, saw %d", c.Stats().Redirects-redirBefore)
	}
	top, err := dst.Topology(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finalized: slot %s now owned by n2, one MOVED to converge, topology epoch=%d\n",
		ss, top.Epoch)
}

// ownerOn finds an owner name whose slot the given node owns.
func ownerOn(m *cluster.Map, nodeID string) string {
	for i := 0; ; i++ {
		o := fmt.Sprintf("owner%05d", i)
		if m.NodeForKey(o).ID == nodeID {
			return o
		}
	}
}

// keyOn finds an untagged key (formatted from pattern) the node owns.
func keyOn(m *cluster.Map, nodeID, pattern string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf(pattern, i)
		if m.NodeForKey(k).ID == nodeID {
			return k
		}
	}
}

// mustSlots fetches the CLUSTER SLOTS entries through the client.
func mustSlots(ctx context.Context, c *gdprkv.Client) []string {
	v, err := c.Do(ctx, "CLUSTER", "SLOTS")
	if err != nil {
		log.Fatal(err)
	}
	out := make([]string, len(v.Array))
	for i, e := range v.Array {
		out[i] = fmt.Sprintf("%d-%d", e.Array[0].Int, e.Array[1].Int)
	}
	return out
}

// forgetStats extracts the erasure counters from a commandstats report.
func forgetStats(info string) string {
	var parts []string
	for _, line := range strings.Split(info, "\r\n") {
		if strings.HasPrefix(line, "cmdstat_forgetuser") {
			parts = append(parts, strings.SplitN(line, ",", 2)[0])
		}
	}
	if len(parts) == 0 {
		return "no forget calls"
	}
	return strings.Join(parts, " ")
}
