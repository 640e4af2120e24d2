package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"gdprstore/internal/cluster"
	"gdprstore/internal/resp"
	"gdprstore/internal/wirecode"
	"gdprstore/pkg/gdprkv"
)

// This file is the cluster-mode surface of the server: slot-ownership
// enforcement as a middleware stage (MOVED, ASK, CROSSSLOT), each slot's
// migration lock, and the peer link slot migration rides. A subject lives
// in its owner's slot, so a rights command routes on its owner like any
// keyed command and one node answers it (DESIGN.md §10). The slot math
// and topology map live in internal/cluster.

// peerTimeout bounds each server-to-server call: one subject's (or one
// key's) pipeline of RESTOREKEYs during a slot migration.
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
// identity does not. locks is every slot's migration lock, the same array
// across every topology of this server.
type clusterState struct {
	selfID string
	topo   *cluster.Topology
	m      *cluster.Map
	locks  *slotLocks
}

// slotLocks holds one migration lock per slot. Every keyed command holds
// its slot's shared while it decides where it runs and while it runs; CLUSTER
// SETSLOT holds it exclusively while it changes the slot's state, and
// CLUSTER MIGRATESLOT while it moves one subject. So a command that runs on
// a migrating slot sees its subject whole on this node, or is redirected to
// where it is whole.
type slotLocks [cluster.NumSlots]sync.RWMutex

// self returns this node's current entry in the map.
func (cs *clusterState) self() cluster.Node {
	n, _ := cs.m.NodeByID(cs.selfID)
	return n
}

// ErrMisplacedData refuses cluster mode over a store that holds a compliant
// record whose key does not hash to its owner's slot, as standalone mode
// and earlier releases allowed. Rights commands reach only the owner's slot
// node, so such a record would outlive an acknowledged FORGETUSER.
var ErrMisplacedData = errors.New("server: cluster: a compliant key does not hash to its owner's slot")

// EnableCluster puts the server in cluster mode (or re-points the slot
// map when already enabled — the new map starts a fresh epoch-1
// topology). Self must name a node of the map, and that node's Addr
// should be how *other* nodes and clients reach this server. It refuses
// with ErrMisplacedData, naming a key, while the store holds a compliant
// record outside its owner's slot.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	if cfg.Map == nil {
		return errors.New("server: cluster: nil slot map")
	}
	if _, ok := cfg.Map.NodeByID(cfg.Self); !ok {
		return fmt.Errorf("server: cluster: self id %q is not in the map", cfg.Self)
	}
	for _, k := range s.store.Engine().Keys("*") {
		rec := s.store.Engine().RecordOf(k)
		if rec != nil && rec.Policy.Owner != "" && cluster.Slot(k) != cluster.Slot(rec.Policy.Owner) && s.store.KeyVisible(k) {
			return fmt.Errorf("%w: %q of owner %q; re-tag the subject's keys as pd:{%s}:..., or erase it with FORGETUSER, on a standalone server first",
				ErrMisplacedData, k, rec.Policy.Owner, rec.Policy.Owner)
		}
	}
	topo := cluster.NewTopology(cfg.Map)
	s.clusterMu.Lock()
	locks := new(slotLocks)
	if cs := s.clusterSt.Load(); cs != nil {
		locks = cs.locks
	}
	s.clusterSt.Store(&clusterState{selfID: cfg.Self, topo: topo, m: topo.Map(), locks: locks})
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
	s.clusterSt.Store(&clusterState{selfID: cs.selfID, topo: next, m: next.Map(), locks: cs.locks})
	return nil
}

// codedError is an error whose text is the complete RESP error reply,
// wire-code prefix included (MOVED/ASK/CROSSSLOT). errReply
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

// errOffSlot refuses a compliant write whose key is outside its owner's
// slot, the placement rule of cluster mode (DESIGN.md §10).
var errOffSlot = codedError{text: wirecode.CrossSlot + " Key does not hash to its owner's slot (tag it pd:{owner}:...)"}

// clusterMiddleware enforces slot ownership once cluster mode is on, for
// commands with Keys (the others are node-local). Every key must hash to
// one slot, and to the owner's slot for a command that names one
// (CROSSSLOT). Holding the slot's migration lock shared until the handler
// returns, it answers MOVED for a slot owned elsewhere (unless this node
// imports it and the client follows an ASK), and ASK on a slot migrating
// away once this node no longer holds the command's subject or keys
// (holds). It sits inside the compliance stage, so AUTH/BASELINE
// rejections keep precedence over redirects.
func (s *Server) clusterMiddleware(next Handler) Handler {
	return func(ctx *Ctx) (resp.Value, error) {
		cs := s.clusterInfo()
		if cs == nil || ctx.Cmd.Keys == nil {
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
		var owner string
		if ctx.Cmd.Owner != nil {
			if owner = ctx.Cmd.Owner(ctx.Args); owner != "" && cluster.Slot(owner) != slot {
				return resp.Value{}, errOffSlot
			}
		}
		lock := &cs.locks[slot]
		lock.RLock()
		defer lock.RUnlock()
		// Re-read under the lock: a SETSLOT that finished before it counts.
		cs = s.clusterInfo()
		node := cs.m.NodeForSlot(slot)
		mg, migrating := cs.topo.Migration(slot)
		switch {
		case node.ID != cs.selfID && migrating && mg.State == cluster.StateImporting && ctx.Asking:
			return next(ctx)
		case node.ID != cs.selfID:
			return resp.Value{}, movedError(slot, node.Addr)
		case !migrating || mg.State != cluster.StateMigrating || s.holds(owner, keys):
			return next(ctx)
		}
		dest, ok := cs.m.NodeByID(mg.PeerID)
		if !ok {
			return next(ctx)
		}
		return resp.Value{}, askError(slot, dest.Addr)
	}
}

// holds reports whether a command on a migrating slot runs here: this node
// holds owner's subject (its owner record, with an erasure or not, or a live
// record), or, for a command that names no owner, one of its keys is live
// here. Crypto-erased ghosts awaiting the sweep do not count: they never
// migrate.
func (s *Server) holds(owner string, keys [][]byte) bool {
	if owner != "" {
		return s.store.Erased(owner) || len(s.store.SubjectKeys(owner, 1)) > 0
	}
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

// --- owner extractors (Command.Owner) ---

// ownerFirst names the first argument (GETUSER owner, OBJECT owner p, ...).
func ownerFirst(a [][]byte) string { return string(a[0]) }

// ownerGPut names the OWNER option of GPUT key value [put options].
func ownerGPut(a [][]byte) string { o, _ := parsePutOptions(a[2:]); return o.Owner }

// ownerGMPut names the OWNER option of GMPUT npairs k1 v1 ... [put options].
func ownerGMPut(a [][]byte) string {
	o, _ := parsePutOptions(a[min(1+2*len(keysGMPut(a)), len(a)):])
	return o.Owner
}

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

// peerCall runs cmds on the peer at addr as the calling session's actor and
// purpose, so the peer's ACL and audit trail see the real principal. It
// rides addr's pooled client as one pipeline of AUTH, PURPOSE and the
// commands, sent in one round trip. AUTH and PURPOSE go out on every call,
// empty or not, so a pooled connection never carries an earlier caller's
// identity. The peer runs every command; replies holds each one's error
// reply, nil for success, and err a failure of the call itself (transport,
// AUTH or PURPOSE). A transport failure on a client that was already
// pooled (the peer restarted since) drops the client and retries once on
// a fresh dial, inside the same peerTimeout.
func (s *Server) peerCall(addr, actor, purpose string, cmds ...[]string) (replies []error, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		c, pooled, err := s.peer(ctx, addr)
		if err != nil {
			return nil, err
		}
		p := c.Pipeline().Do("AUTH", actor).Do("PURPOSE", purpose)
		for _, cmd := range cmds {
			p.Do(cmd...)
		}
		res, err := p.Exec(ctx)
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
			return nil, err
		}
		for _, r := range res[:2] {
			if r.Err != nil {
				return nil, errors.New(r.Value.Text())
			}
		}
		replies = make([]error, len(cmds))
		for i, r := range res[2:] {
			if r.Err != nil {
				replies[i] = errors.New(r.Value.Text())
			}
		}
		return replies, nil
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
