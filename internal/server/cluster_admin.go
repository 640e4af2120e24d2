package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gdprstore/internal/cluster"
	"gdprstore/internal/resp"
)

// This file is the CLUSTER admin command: one declarative subcommand
// table, mirroring the top-level command registry, that every subcommand
// — introspection (SLOTS/INFO/MYID/KEYSLOT/TOPOLOGY), slot bookkeeping
// (COUNTKEYSINSLOT/GETKEYSINSLOT), and the elasticity verbs
// (SETSLOT/SETNODE/MIGRATESLOT) — dispatches through. CLUSTER HELP is
// generated from the same table, so the help text can never drift from
// the dispatch.

// clusterSub is one row of the CLUSTER subcommand table.
type clusterSub struct {
	// name is the canonical (upper-case) subcommand token.
	name string
	// usage is the argument tail rendered in CLUSTER HELP ("" when the
	// subcommand takes none).
	usage string
	// minArgs/maxArgs bound the arguments after the subcommand token.
	minArgs, maxArgs int
	// summary is the one-line description HELP reports.
	summary string
	// needsCluster rejects the subcommand while cluster mode is off (cs
	// is non-nil in the handler when set).
	needsCluster bool
	// admin puts the subcommand through the gate's FlagAdmin decision; the
	// rest are open, TOPOLOGY for every cluster client's router.
	admin   bool
	handler func(ctx *Ctx, cs *clusterState, args [][]byte) (resp.Value, error)
}

// clusterSubs is the table, in HELP display order.
var clusterSubs = []clusterSub{
	{
		name: "SLOTS", summary: "slot ranges with their primary and replicas",
		handler: func(ctx *Ctx, cs *clusterState, _ [][]byte) (resp.Value, error) {
			if cs == nil {
				return resp.ArrayValue(), nil
			}
			return clusterSlotsValue(cs.m), nil
		},
	},
	{
		name: "INFO", summary: "cluster state in INFO field format",
		handler: func(ctx *Ctx, _ *clusterState, _ [][]byte) (resp.Value, error) {
			snap := InfoSnapshot{Name: "cluster", Fields: ctx.Srv.clusterFields()}
			return resp.BulkStringValue(renderInfoText([]InfoSnapshot{snap})), nil
		},
	},
	{
		name: "MYID", summary: "this node's id", needsCluster: true,
		handler: func(_ *Ctx, cs *clusterState, _ [][]byte) (resp.Value, error) {
			return resp.BulkStringValue(cs.selfID), nil
		},
	},
	{
		name: "KEYSLOT", usage: "key", minArgs: 1, maxArgs: 1,
		summary: "the hash slot a key maps to",
		handler: func(_ *Ctx, _ *clusterState, args [][]byte) (resp.Value, error) {
			return resp.IntegerValue(int64(cluster.Slot(string(args[0])))), nil
		},
	},
	{
		name: "TOPOLOGY", summary: "epoch-stamped topology: [epoch, slots, migrations]",
		needsCluster: true,
		handler: func(_ *Ctx, cs *clusterState, _ [][]byte) (resp.Value, error) {
			return clusterTopologyValue(cs.topo), nil
		},
	},
	{
		name: "SETSLOT", usage: "slot MIGRATING|IMPORTING node-id | STABLE | NODE node-id",
		minArgs: 2, maxArgs: 3, needsCluster: true, admin: true,
		summary: "advance a slot through the migration state machine (bumps the epoch)",
		handler: cmdClusterSetSlot,
	},
	{
		name: "SETNODE", usage: "node-id addr", minArgs: 2, maxArgs: 2, needsCluster: true, admin: true,
		summary: "re-point a node id at a new address after failover (bumps the epoch)",
		handler: cmdClusterSetNode,
	},
	{
		name: "COUNTKEYSINSLOT", usage: "slot", minArgs: 1, maxArgs: 1, needsCluster: true,
		summary: "number of live local keys in a slot",
		handler: func(ctx *Ctx, _ *clusterState, args [][]byte) (resp.Value, error) {
			slot, err := parseSlot(args[0])
			if err != nil {
				return resp.Value{}, err
			}
			return resp.IntegerValue(int64(len(ctx.Srv.keysInSlot(slot, -1)))), nil
		},
	},
	{
		name: "GETKEYSINSLOT", usage: "slot count", minArgs: 2, maxArgs: 2, needsCluster: true, admin: true,
		summary: "up to count live local keys in a slot",
		handler: func(ctx *Ctx, _ *clusterState, args [][]byte) (resp.Value, error) {
			slot, err := parseSlot(args[0])
			if err != nil {
				return resp.Value{}, err
			}
			n, err := strconv.Atoi(string(args[1]))
			if err != nil || n < 0 {
				return resp.Value{}, fmt.Errorf("invalid count %q", string(args[1]))
			}
			return stringsArray(ctx.Srv.keysInSlot(slot, n)), nil
		},
	},
	{
		name: "MIGRATESLOT", usage: "slot", minArgs: 1, maxArgs: 1, needsCluster: true, admin: true,
		summary: "stream a MIGRATING slot's keys to its destination (run on the source)",
		handler: cmdClusterMigrateSlot,
	},
	// HELP's handler is wired in init(): it renders this very table, which
	// would otherwise be an initialization cycle.
	{name: "HELP", summary: "this listing"},
}

// clusterSubByName is the dispatch index, built from the table at init.
var clusterSubByName = func() map[string]*clusterSub {
	m := make(map[string]*clusterSub, len(clusterSubs))
	for i := range clusterSubs {
		sub := &clusterSubs[i]
		if sub.name != strings.ToUpper(sub.name) {
			panic("server: CLUSTER subcommand must be upper-case: " + sub.name)
		}
		if _, dup := m[sub.name]; dup {
			panic("server: duplicate CLUSTER subcommand " + sub.name)
		}
		m[sub.name] = sub
	}
	return m
}()

func init() {
	clusterSubByName["HELP"].handler = cmdClusterHelp
	register(Command{
		Name: "CLUSTER", MinArgs: 1, MaxArgs: -1, Flags: FlagReadonly,
		Summary: "cluster administration (see CLUSTER HELP)",
		Handler: cmdCluster,
	})
}

func cmdCluster(ctx *Ctx) (resp.Value, error) {
	sub, ok := clusterSubByName[strings.ToUpper(string(ctx.Args[0]))]
	if !ok {
		return resp.Value{}, fmt.Errorf("unknown CLUSTER subcommand '%s' (see CLUSTER HELP)", string(ctx.Args[0]))
	}
	args := ctx.Args[1:]
	if len(args) < sub.minArgs || (sub.maxArgs >= 0 && len(args) > sub.maxArgs) {
		return resp.Value{}, fmt.Errorf("wrong number of arguments for 'CLUSTER %s' (usage: CLUSTER %s)",
			sub.name, strings.TrimSpace(sub.name+" "+sub.usage))
	}
	if sub.admin {
		if err := ctx.Srv.store.Authorize(ctx.Core, "CLUSTER "+sub.name, false, false); err != nil {
			return resp.Value{}, err
		}
	}
	cs := ctx.Srv.clusterInfo()
	if sub.needsCluster && cs == nil {
		return resp.Value{}, errors.New("this instance has cluster support disabled")
	}
	return sub.handler(ctx, cs, args)
}

// cmdClusterHelp renders the table as CLUSTER HELP lines.
func cmdClusterHelp(_ *Ctx, _ *clusterState, _ [][]byte) (resp.Value, error) {
	lines := make([]string, 0, len(clusterSubs))
	for _, sub := range clusterSubs {
		u := sub.name
		if sub.usage != "" {
			u += " " + sub.usage
		}
		lines = append(lines, fmt.Sprintf("CLUSTER %s — %s", u, sub.summary))
	}
	return stringsArray(lines), nil
}

// parseSlot parses a slot argument, bounds-checked against NumSlots.
func parseSlot(arg []byte) (uint16, error) {
	n, err := strconv.ParseUint(string(arg), 10, 16)
	if err != nil || n >= cluster.NumSlots {
		return 0, fmt.Errorf("invalid slot %q (slots are 0-%d)", string(arg), cluster.NumSlots-1)
	}
	return uint16(n), nil
}

// keysInSlot lists this node's live keys hashing to slot, sorted; max
// bounds the result (negative means all). Crypto-erased ghosts are
// excluded — they are not data anymore.
func (s *Server) keysInSlot(slot uint16, max int) []string {
	var out []string
	for _, k := range s.store.Engine().Keys("*") {
		if cluster.Slot(k) == slot && s.store.KeyVisible(k) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	if max >= 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// clusterTopologyValue renders the full versioned topology:
// [epoch, slots (CLUSTER SLOTS shape, replicas included), migrations],
// where migrations is a list of [slot, state, peer-id] triples for this
// node's in-flight slot transfers.
func clusterTopologyValue(t *cluster.Topology) resp.Value {
	migs := t.Migrations()
	slots := make([]uint16, 0, len(migs))
	for s := range migs {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	mvs := make([]resp.Value, 0, len(slots))
	for _, s := range slots {
		mg := migs[s]
		mvs = append(mvs, resp.ArrayValue(
			resp.IntegerValue(int64(s)),
			resp.BulkStringValue(mg.State.String()),
			resp.BulkStringValue(mg.PeerID),
		))
	}
	return resp.ArrayValue(
		resp.IntegerValue(int64(t.Epoch())),
		clusterSlotsValue(t.Map()),
		resp.ArrayValue(mvs...),
	)
}

// cmdClusterSetSlot advances one slot through the migration state
// machine. The operator issues the same sequence on both ends:
//
//	dest:   CLUSTER SETSLOT <slot> IMPORTING <src-id>
//	source: CLUSTER SETSLOT <slot> MIGRATING <dest-id>
//	source: CLUSTER MIGRATESLOT <slot>
//	all:    CLUSTER SETSLOT <slot> NODE <dest-id>
//
// It holds the slot's migration lock exclusively, so every command that
// decided where to run under the old state has finished first.
func cmdClusterSetSlot(ctx *Ctx, cs *clusterState, args [][]byte) (resp.Value, error) {
	slot, err := parseSlot(args[0])
	if err != nil {
		return resp.Value{}, err
	}
	lock := &cs.locks[slot]
	lock.Lock()
	defer lock.Unlock()
	verb := strings.ToUpper(string(args[1]))
	needsID := verb == "MIGRATING" || verb == "IMPORTING" || verb == "NODE"
	if needsID != (len(args) == 3) {
		return resp.Value{}, errSyntax
	}
	return okOr(ctx.Srv.swapTopology(func(t *cluster.Topology) (*cluster.Topology, error) {
		switch verb {
		case "MIGRATING":
			return t.WithMigrating(slot, string(args[2]))
		case "IMPORTING":
			return t.WithImporting(slot, string(args[2]))
		case "STABLE":
			return t.WithStable(slot), nil
		case "NODE":
			return t.WithSlotOwner(slot, string(args[2]))
		default:
			return nil, fmt.Errorf("unknown SETSLOT verb '%s'", string(args[1]))
		}
	}))
}

// cmdClusterSetNode re-points a node id at a new address: the failover
// finalizer, issued on every surviving node (and the promoted replica)
// after REPLICAOF NO ONE.
func cmdClusterSetNode(ctx *Ctx, _ *clusterState, args [][]byte) (resp.Value, error) {
	addr := string(args[1])
	if !strings.Contains(addr, ":") {
		return resp.Value{}, fmt.Errorf("address %q is not host:port", addr)
	}
	return okOr(ctx.Srv.swapTopology(func(t *cluster.Topology) (*cluster.Topology, error) {
		return t.WithNodeAddr(string(args[0]), addr)
	}))
}
