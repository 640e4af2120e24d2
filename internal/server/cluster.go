package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
	"gdprstore/internal/resp"
	"gdprstore/internal/wirecode"
	"gdprstore/pkg/gdprkv"
)

// This file is the cluster-mode surface of the server: slot-ownership
// enforcement (MOVED redirects and CROSSSLOT batch rejection) as a
// middleware stage, the CLUSTER introspection command, and the
// cluster-wide rights coordinator that fans FORGETUSER/GETUSER out to
// every primary so Article 15/17 guarantees hold across the whole
// partitioned keyspace. The slot math and topology map live in
// internal/cluster; this file wires them to the command pipeline.

// peerTimeout bounds each server-to-server call: one peer's half of a
// rights fan-out, or one RESTOREKEY of a slot migration.
const peerTimeout = 5 * time.Second

// ClusterConfig enables cluster mode on a server.
type ClusterConfig struct {
	// Self is this server's node id in the map.
	Self string
	// Map is the static slot topology shared by every node.
	Map *cluster.Map
}

// clusterState is the resolved cluster configuration, swapped atomically
// so the hot path reads it lock-free. topo is this node's versioned view
// (epoch, slot map, in-flight migrations); m caches topo.Map() so the
// slot check dereferences one pointer. selfID is stable across topology
// mutations — the node's address in the map may change (failover), its
// identity does not.
type clusterState struct {
	selfID string
	topo   *cluster.Topology
	m      *cluster.Map
}

// self returns this node's current entry in the map.
func (cs *clusterState) self() cluster.Node {
	n, _ := cs.m.NodeByID(cs.selfID)
	return n
}

// EnableCluster puts the server in cluster mode (or re-points the slot
// map when already enabled — the new map starts a fresh epoch-1
// topology). Self must name a node of the map, and that node's Addr
// should be how *other* nodes and clients reach this server.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	if cfg.Map == nil {
		return errors.New("server: cluster: nil slot map")
	}
	if _, ok := cfg.Map.NodeByID(cfg.Self); !ok {
		return fmt.Errorf("server: cluster: self id %q is not in the map", cfg.Self)
	}
	topo := cluster.NewTopology(cfg.Map)
	s.clusterMu.Lock()
	s.clusterSt.Store(&clusterState{selfID: cfg.Self, topo: topo, m: topo.Map()})
	s.clusterMu.Unlock()
	return nil
}

// clusterInfo returns the current cluster state, nil when cluster mode is
// off.
func (s *Server) clusterInfo() *clusterState { return s.clusterSt.Load() }

// swapTopology applies one admin mutation to the current topology under
// clusterMu, so concurrent CLUSTER SETSLOT/SETNODE commands serialize and
// every accepted mutation bumps the epoch exactly once.
func (s *Server) swapTopology(mutate func(*cluster.Topology) (*cluster.Topology, error)) error {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	cs := s.clusterSt.Load()
	if cs == nil {
		return errors.New("this instance has cluster support disabled")
	}
	next, err := mutate(cs.topo)
	if err != nil {
		return err
	}
	s.clusterSt.Store(&clusterState{selfID: cs.selfID, topo: next, m: next.Map()})
	return nil
}

// codedError is an error whose text is the complete RESP error reply,
// wire-code prefix included (MOVED/CROSSSLOT/CLUSTERDOWN). errReply
// passes it through verbatim.
type codedError struct{ text string }

func (e codedError) Error() string { return e.text }

func movedError(slot uint16, addr string) error {
	return codedError{text: fmt.Sprintf("%s %d %s", wirecode.Moved, slot, addr)}
}

// askError is the one-shot migration redirect: retry this command (only)
// at addr after an ASKING handshake; ownership has not changed.
func askError(slot uint16, addr string) error {
	return codedError{text: fmt.Sprintf("%s %d %s", wirecode.Ask, slot, addr)}
}

var errCrossSlot = codedError{text: wirecode.CrossSlot + " Keys in request don't hash to the same slot"}

// clusterMiddleware enforces slot ownership once cluster mode is on:
//
//   - commands with a Keys extractor must have every key in one slot
//     (CROSSSLOT otherwise) and that slot must be owned by this node
//     (MOVED otherwise);
//   - Fanout commands (FORGETUSER/GETUSER) are accepted on any node and
//     coordinated cluster-wide;
//   - commands without Keys are node-local and pass through.
//
// It sits inside the compliance stage, so AUTH/BASELINE rejections keep
// precedence over redirects.
func (s *Server) clusterMiddleware(next Handler) Handler {
	return func(ctx *Ctx) (resp.Value, error) {
		cs := s.clusterInfo()
		if cs == nil {
			return next(ctx)
		}
		if ctx.Cmd.Fanout {
			return s.clusterFanout(ctx, cs)
		}
		if ctx.Cmd.Keys == nil {
			return next(ctx)
		}
		keys := ctx.Cmd.Keys(ctx.Args)
		if len(keys) == 0 {
			return next(ctx)
		}
		slot := cluster.Slot(string(keys[0]))
		for _, k := range keys[1:] {
			if cluster.Slot(string(k)) != slot {
				return resp.Value{}, errCrossSlot
			}
		}
		owner := cs.m.NodeForSlot(slot)
		if owner.ID == cs.selfID {
			// We own the slot. While it is MIGRATING away, keys that have
			// already moved (or were never here — new writes must land at
			// the destination) earn a one-shot ASK redirect; keys still
			// present are served locally until their turn to move.
			if mg, ok := cs.topo.Migration(slot); ok && mg.State == cluster.StateMigrating {
				if !s.anyKeyPresent(keys) {
					if dest, ok := cs.m.NodeByID(mg.PeerID); ok {
						return resp.Value{}, askError(slot, dest.Addr)
					}
				}
			}
			return next(ctx)
		}
		// Not the owner: admit only ASK-following clients for a slot this
		// node is importing; everything else is redirected to the owner.
		if mg, ok := cs.topo.Migration(slot); ok && mg.State == cluster.StateImporting && ctx.Asking {
			return next(ctx)
		}
		return resp.Value{}, movedError(slot, owner.Addr)
	}
}

// anyKeyPresent reports whether at least one of the requested keys is
// live locally — the MIGRATING-state test for serving locally vs ASK.
// Crypto-erased ghosts awaiting the sweep do not count: they will never
// migrate, so commands on them belong at the destination.
func (s *Server) anyKeyPresent(keys [][]byte) bool {
	for _, k := range keys {
		key := string(k)
		if s.store.Exists(key) && s.store.KeyVisible(key) {
			return true
		}
	}
	return false
}

// --- key extractors (Command.Keys) ---

// keysFirst routes on the first argument (GET key, GPUT key value, ...,
// and the owner-scoped GDPR commands, whose owner argument hashes to the
// same slot as the owner's tagged keys).
func keysFirst(a [][]byte) [][]byte { return a[:1] }

// keysAll routes on every argument (MGET, GMGET, DEL, EXISTS).
func keysAll(a [][]byte) [][]byte { return a }

// keysPairs routes on every even-indexed argument (MSET k v k v ...).
func keysPairs(a [][]byte) [][]byte {
	out := make([][]byte, 0, len(a)/2)
	for i := 0; i < len(a); i += 2 {
		out = append(out, a[i])
	}
	return out
}

// keysGMPut routes on the key of every pair of GMPUT npairs k1 v1 ... kN
// vN [options]. The pair count was validated against the arity bounds by
// the handler's own parse; here a malformed count degrades to fewer keys
// and the handler reports the real error.
func keysGMPut(a [][]byte) [][]byte {
	n, err := strconv.Atoi(string(a[0]))
	if err != nil || n <= 0 || n > (len(a)-1)/2 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, a[1+2*i])
	}
	return out
}

// --- cluster-internal command registrations ---
//
// The CLUSTER admin command itself lives in cluster_admin.go, dispatched
// through a declarative subcommand table.

func init() {
	register(Command{
		Name: "ASKING", MinArgs: 0, MaxArgs: 0, Flags: FlagReadonly,
		Summary: "announce that the next command follows an ASK redirect",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			ctx.Sess.asking = true
			return resp.SimpleStringValue("OK"), nil
		},
	})
	// RESTOREKEY is the destination half of slot migration: it ingests one
	// record streamed by the source's CLUSTER MIGRATESLOT, in the form the
	// journal carries it (GREC, SET or SETEX with its arguments). Keys is
	// nil on purpose — the record's key belongs to a slot this node does
	// not own yet, so the handler does its own owns-or-imports check
	// instead of the middleware's MOVED logic. One argument is an earlier
	// release's encoded record, which the handler refuses.
	register(Command{
		Name: "RESTOREKEY", MinArgs: 1, MaxArgs: -1, Flags: FlagWrite | FlagAdmin,
		Summary: "ingest one migrated record (cluster-internal; driven by CLUSTER MIGRATESLOT)",
		Handler: handleRestoreKey,
	})
	// Cluster-internal rights primitives: the node-local halves of the
	// coordinated rights commands. The coordinator invokes them on every
	// peer; they never fan out themselves, which is what makes the
	// fan-out terminate. They are registered unconditionally (harmless
	// aliases of local execution off-cluster) so operators can also use
	// them to inspect a single node.
	register(Command{
		Name: "FORGETUSERLOCAL", MinArgs: 1, MaxArgs: 1, Flags: FlagWrite | FlagGDPR,
		Summary: "node-local Art. 17 erasure (cluster-internal; use FORGETUSER)",
		Handler: handleForgetLocal,
	})
	register(Command{
		Name: "GETUSERLOCAL", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR,
		Summary: "node-local Art. 15 access (cluster-internal; use GETUSER)",
		Handler: handleGetUserLocal,
	})
	register(Command{
		Name: "EXPORTUSERLOCAL", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR,
		Summary: "node-local Art. 20 export (cluster-internal; use EXPORTUSER)",
		Handler: handleExportLocal,
	})
	register(Command{
		Name: "OBJECTLOCAL", MinArgs: 2, MaxArgs: 2, Flags: FlagWrite | FlagGDPR,
		Summary: "node-local Art. 21 objection (cluster-internal; use OBJECT)",
		Handler: handleObjectLocal,
	})
	register(Command{
		Name: "UNOBJECTLOCAL", MinArgs: 2, MaxArgs: 2, Flags: FlagWrite | FlagGDPR,
		Summary: "node-local objection withdrawal (cluster-internal; use UNOBJECT)",
		Handler: handleUnobjectLocal,
	})
}

// clusterSlotsValue renders the topology in Redis CLUSTER SLOTS shape:
// one entry per contiguous range, [start, end, [host, port, id],
// [host, port, addr]...] — the first address array is the primary, any
// further ones are its replicas (their id field carries the replica's
// address, the only identity a replica has). Clients that read only the
// primary entry are unaffected by the extra elements.
func clusterSlotsValue(m *cluster.Map) resp.Value {
	ranges := m.SlotRanges()
	vs := make([]resp.Value, 0, len(ranges))
	for _, sr := range ranges {
		entry := make([]resp.Value, 0, 3+len(sr.Node.Replicas))
		entry = append(entry,
			resp.IntegerValue(int64(sr.Range.Start)),
			resp.IntegerValue(int64(sr.Range.End)),
			clusterAddrValue(sr.Node.Addr, sr.Node.ID),
		)
		for _, rep := range sr.Node.Replicas {
			entry = append(entry, clusterAddrValue(rep, rep))
		}
		vs = append(vs, resp.ArrayValue(entry...))
	}
	return resp.ArrayValue(vs...)
}

// clusterAddrValue renders one [host, port, id] address triple.
func clusterAddrValue(addr, id string) resp.Value {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		host, portStr = addr, "0"
	}
	port, _ := strconv.ParseInt(portStr, 10, 64)
	return resp.ArrayValue(
		resp.BulkStringValue(host),
		resp.IntegerValue(port),
		resp.BulkStringValue(id),
	)
}

// --- node-local rights primitives ---

func handleForgetLocal(ctx *Ctx) (resp.Value, error) {
	n, err := ctx.Srv.store.Forget(ctx.Core, string(ctx.Args[0]))
	if err != nil {
		return resp.Value{}, err
	}
	return resp.IntegerValue(int64(n)), nil
}

// handleGetUserLocal serves GETUSER, GETUSERDATA and GETUSERLOCAL. It reads
// the whole report first, which is all that can fail, then writes it into
// ctx.Out as one array of key/value pairs, allocating nothing per record.
func handleGetUserLocal(ctx *Ctx) (resp.Value, error) {
	keys, values, err := ctx.Srv.store.UserValues(ctx.Core, string(ctx.Args[0]))
	if err != nil {
		return resp.Value{}, err
	}
	err = ctx.Out.WriteArrayHeader(2 * len(keys))
	for i := 0; i < len(keys) && err == nil; i++ {
		if err = ctx.Out.WriteBulkString(keys[i]); err == nil {
			err = ctx.Out.WriteBulk(values[i])
		}
	}
	return resp.Value{}, err
}

func handleExportLocal(ctx *Ctx) (resp.Value, error) {
	b, err := ctx.Srv.store.Export(ctx.Core, string(ctx.Args[0]))
	if err != nil {
		return resp.Value{}, err
	}
	return resp.BulkValue(b), nil
}

func handleObjectLocal(ctx *Ctx) (resp.Value, error) {
	if err := ctx.Srv.store.Object(ctx.Core, string(ctx.Args[0]), string(ctx.Args[1])); err != nil {
		return resp.Value{}, err
	}
	return resp.SimpleStringValue("OK"), nil
}

func handleUnobjectLocal(ctx *Ctx) (resp.Value, error) {
	if err := ctx.Srv.store.Unobject(ctx.Core, string(ctx.Args[0]), string(ctx.Args[1])); err != nil {
		return resp.Value{}, err
	}
	return resp.SimpleStringValue("OK"), nil
}

// --- the rights fan-out coordinator ---

// fanoutSpec describes how one rights command distributes: the node-local
// primitive its peers run, and how the per-node replies merge.
type fanoutSpec struct {
	localCmd string
	merge    func(local resp.Value, peers []resp.Value) (resp.Value, error)
	// audited writes an aggregate coordinator record on success (erasure
	// only; read-path rights are audited per node by the store itself).
	audited bool
}

var fanoutSpecs = map[string]fanoutSpec{
	"FORGETUSER":  {localCmd: "FORGETUSERLOCAL", merge: mergeSum, audited: true},
	"GETUSER":     {localCmd: "GETUSERLOCAL", merge: mergeConcat},
	"GETUSERDATA": {localCmd: "GETUSERLOCAL", merge: mergeConcat},
	"EXPORTUSER":  {localCmd: "EXPORTUSERLOCAL", merge: mergeExport},
	"OBJECT":      {localCmd: "OBJECTLOCAL", merge: mergeOK},
	"UNOBJECT":    {localCmd: "UNOBJECTLOCAL", merge: mergeOK},
}

// mergeSum adds integer replies (erasure counts).
func mergeSum(local resp.Value, peers []resp.Value) (resp.Value, error) {
	total := local.Int
	for _, v := range peers {
		total += v.Int
	}
	return resp.IntegerValue(total), nil
}

// mergeConcat appends array replies (key/value record lists).
func mergeConcat(local resp.Value, peers []resp.Value) (resp.Value, error) {
	merged := append([]resp.Value(nil), local.Array...)
	for _, v := range peers {
		merged = append(merged, v.Array...)
	}
	return resp.ArrayValue(merged...), nil
}

// mergeOK collapses unanimous OK replies (objections).
func mergeOK(resp.Value, []resp.Value) (resp.Value, error) {
	return resp.SimpleStringValue("OK"), nil
}

// exportPayload is the Article 20 portability envelope core.Export emits
// (format gdprstore-export/v1); the coordinator merges the per-node
// record lists into one payload so a cluster export is as complete as a
// single-node one.
type exportPayload struct {
	Format  string            `json:"format"`
	Owner   string            `json:"owner"`
	Records []json.RawMessage `json:"records"`
}

func mergeExport(local resp.Value, peers []resp.Value) (resp.Value, error) {
	var out exportPayload
	if err := json.Unmarshal(local.Str, &out); err != nil {
		return resp.Value{}, fmt.Errorf("cluster export merge: %w", err)
	}
	for _, v := range peers {
		var p exportPayload
		if err := json.Unmarshal(v.Str, &p); err != nil {
			return resp.Value{}, fmt.Errorf("cluster export merge: %w", err)
		}
		out.Records = append(out.Records, p.Records...)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return resp.Value{}, err
	}
	return resp.BulkValue(b), nil
}

// clusterFanout coordinates a rights command across every primary: the
// local half runs through the command's own handler, the remote halves
// through the *LOCAL primitives on each peer, and the replies merge per
// the command's fanoutSpec. A local refusal (DENIED, ERASED, ...) is
// returned verbatim — its wire code is the authoritative answer and the
// peers are not consulted. After a successful local half the operation is
// all-or-reported: any unreachable or refusing peer turns the reply into
// a CLUSTERDOWN error naming the nodes that did not confirm, and the
// partial outcome is written to the audit trail — never silently dropped.
// Every right, reads included, asks primaries only: a replica may not yet
// have applied an erasure the cluster already acknowledged.
func (s *Server) clusterFanout(ctx *Ctx, cs *clusterState) (resp.Value, error) {
	owner := string(ctx.Args[0])
	spec := fanoutSpecs[ctx.Cmd.Name]
	back := divert(ctx)
	localV, err := back(ctx.Cmd.Handler(ctx))
	if err != nil {
		return resp.Value{}, err
	}

	peers := make([]cluster.Node, 0, len(cs.m.Nodes())-1)
	for _, n := range cs.m.Nodes() {
		if n.ID != cs.selfID {
			peers = append(peers, n)
		}
	}
	peerArgs := make([]string, 0, 1+len(ctx.Args))
	peerArgs = append(peerArgs, spec.localCmd)
	for _, a := range ctx.Args {
		peerArgs = append(peerArgs, string(a))
	}

	type peerReply struct {
		node cluster.Node
		v    resp.Value
		err  error
	}
	replies := make([]peerReply, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p cluster.Node) {
			defer wg.Done()
			v, err := s.peerCall(p.Addr, ctx.Core.Actor, ctx.Core.Purpose, peerArgs...)
			replies[i] = peerReply{node: p, v: v, err: err}
		}(i, p)
	}
	wg.Wait()

	var failed []string
	peerVals := make([]resp.Value, 0, len(replies))
	for _, r := range replies {
		if r.err != nil {
			failed = append(failed, fmt.Sprintf("%s (%s): %v", r.node.ID, r.node.Addr, r.err))
			continue
		}
		peerVals = append(peerVals, r.v)
	}

	if len(failed) > 0 {
		sort.Strings(failed)
		detail := fmt.Sprintf("cluster fan-out incomplete (%d/%d nodes failed): %s",
			len(failed), len(peers)+1, strings.Join(failed, "; "))
		s.auditCluster(audit.Record{
			Actor: ctx.Core.Actor, Op: ctx.Cmd.Name, Owner: owner, Purpose: ctx.Core.Purpose,
			Outcome: audit.OutcomeError, Detail: detail,
		})
		return resp.Value{}, codedError{text: wirecode.ClusterDown + " " + detail}
	}

	merged, err := spec.merge(localV, peerVals)
	if err != nil {
		return resp.Value{}, err
	}
	if spec.audited {
		s.auditCluster(audit.Record{
			Actor: ctx.Core.Actor, Op: ctx.Cmd.Name, Owner: owner, Purpose: ctx.Core.Purpose,
			Outcome: audit.OutcomeOK,
			Detail:  fmt.Sprintf("cluster fan-out: nodes=%d erased=%d", len(peers)+1, merged.Int),
		})
	}
	return merged, nil
}

// auditCluster writes a coordinator-side audit record when the store has
// a trail (fan-out outcomes are part of the Article 30 evidence; each
// node additionally audits its own local half).
func (s *Server) auditCluster(r audit.Record) {
	if t := s.store.Trail(); t != nil {
		_, _ = t.Append(r)
	}
}

// peerCall runs one command on the peer at addr as the coordinator
// session's actor and purpose, so the peer's ACL and audit trail see the
// real principal. It rides addr's pooled client as one pipeline of AUTH,
// PURPOSE and the command, sent in one round trip. AUTH and PURPOSE go out
// on every call, empty or not, so a pooled connection never carries an
// earlier caller's identity. An error reply in any slot fails the call
// with that reply's text. A transport failure on a client that was
// already pooled (the peer restarted since) drops the client and retries
// once on a fresh dial, inside the same peerTimeout.
func (s *Server) peerCall(addr, actor, purpose string, args ...string) (resp.Value, error) {
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		c, pooled, err := s.peer(ctx, addr)
		if err != nil {
			return resp.Value{}, err
		}
		res, err := c.Pipeline().Do("AUTH", actor).Do("PURPOSE", purpose).Do(args...).Exec(ctx)
		if err != nil {
			if pooled && attempt == 0 && ctx.Err() == nil {
				// Forget the stale client; calls already on it finish on
				// their checked-out connections.
				s.mu.Lock()
				if s.peers[addr] == c {
					delete(s.peers, addr)
				}
				s.mu.Unlock()
				c.Close()
				continue
			}
			return resp.Value{}, err
		}
		for _, r := range res {
			if r.Err != nil {
				return resp.Value{}, errors.New(r.Value.Text())
			}
		}
		return res[2].Value, nil
	}
}

// peer returns addr's pooled client, and whether it was pooled before
// this call, dialing it on first use. The dial runs outside s.mu, so a
// dead peer's dial never holds up calls to the others; of two racing
// dials the later one closes its client and takes the pooled one.
func (s *Server) peer(ctx context.Context, addr string) (*gdprkv.Client, bool, error) {
	s.mu.Lock()
	c := s.peers[addr]
	s.mu.Unlock()
	if c != nil {
		return c, true, nil
	}
	c, err := gdprkv.Dial(ctx, addr, gdprkv.WithDialTimeout(peerTimeout), gdprkv.WithIOTimeout(peerTimeout))
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		c.Close()
		return nil, false, gdprkv.ErrClosed
	}
	if won := s.peers[addr]; won != nil {
		c.Close()
		return won, true, nil
	}
	s.peers[addr] = c
	return c, false, nil
}

// clusterStatePtr is the atomic holder type (declared here to keep the
// cluster surface in one file; the field lives on Server).
type clusterStatePtr = atomic.Pointer[clusterState]
