package gdprkv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"

	"gdprstore/internal/cluster"
	"gdprstore/internal/resp"
)

// Topology is the epoch-stamped cluster slot map as one node sees it,
// fetched with Client.Topology. It is a snapshot — the cluster may move
// on (the Epoch of a later snapshot will be higher).
type Topology struct {
	// Epoch versions the view: operators bump it with every CLUSTER
	// SETSLOT/SETNODE mutation, and clients never downgrade to a lower
	// epoch than they have seen.
	Epoch uint64
	// Slots lists the contiguous slot ranges in ascending order; together
	// they cover every slot exactly once.
	Slots []SlotRange
}

// SlotRange is one contiguous run of slots with a single owner.
type SlotRange struct {
	// Start and End bound the range, inclusive.
	Start, End uint16
	// ID is the owning node's operator-chosen id (stable across
	// failovers).
	ID string
	// Addr is the owning node's current client-facing address.
	Addr string
	// Replicas are the addresses of the replicas attached to the owner,
	// the promotion candidates when it dies. They serve no data reads.
	Replicas []string
}

// Topology fetches the current epoch-stamped topology from the client's
// default node (any node answers; views can differ transiently while an
// operator rolls a mutation across the fleet). It requires a server in
// cluster mode, but works on clients dialed with or without WithCluster —
// an operator tool can inspect a node without adopting its routing.
func (c *Client) Topology(ctx context.Context) (Topology, error) {
	v, err := c.call(ctx, classWrite, "", args("CLUSTER", "TOPOLOGY"))
	if err != nil {
		return Topology{}, err
	}
	return parseTopology(v)
}

// parseTopology decodes a CLUSTER TOPOLOGY reply: [epoch, slots,
// migrations], where each slots entry is [start, end, [host, port, id],
// replica address triples...]. Client.Topology and the router share it.
func parseTopology(v resp.Value) (Topology, error) {
	if len(v.Array) < 2 {
		return Topology{}, errors.New("gdprkv: malformed CLUSTER TOPOLOGY reply")
	}
	t := Topology{Epoch: uint64(v.Array[0].Int)}
	for _, e := range v.Array[1].Array {
		if len(e.Array) < 3 || len(e.Array[2].Array) < 3 {
			return Topology{}, errors.New("gdprkv: malformed CLUSTER TOPOLOGY slot entry")
		}
		start, end := e.Array[0].Int, e.Array[1].Int
		if start < 0 || end < start || end >= cluster.NumSlots {
			return Topology{}, fmt.Errorf("gdprkv: CLUSTER TOPOLOGY range %d-%d out of bounds", start, end)
		}
		sr := SlotRange{
			Start: uint16(start),
			End:   uint16(end),
			ID:    e.Array[2].Array[2].Text(),
			Addr:  joinAddrValue(e.Array[2]),
		}
		for _, rv := range e.Array[3:] {
			if len(rv.Array) >= 2 {
				sr.Replicas = append(sr.Replicas, joinAddrValue(rv))
			}
		}
		t.Slots = append(t.Slots, sr)
	}
	return t, nil
}

// joinAddrValue renders one [host, port, id] triple as host:port.
func joinAddrValue(v resp.Value) string {
	return net.JoinHostPort(v.Array[0].Text(), strconv.FormatInt(v.Array[1].Int, 10))
}

// fetchTopology asks the node behind p for its topology, outside the
// dispatch loop: no counter, redirect or failover applies.
func (c *Client) fetchTopology(ctx context.Context, p *pool) (Topology, error) {
	var res [1]PipeResult
	if _, err := c.exchange(ctx, target{owner: p}, [][][]byte{args("CLUSTER", "TOPOLOGY")}, res[:]); err != nil {
		return Topology{}, err
	}
	if res[0].Err != nil {
		return Topology{}, res[0].Err
	}
	return parseTopology(res[0].Value)
}

// bootstrap learns the topology from the first seed that answers and
// installs the first view, with that seed as the default node for calls
// that carry no key.
func (c *Client) bootstrap(ctx context.Context, seeds []string) error {
	var lastErr error
	for _, addr := range seeds {
		def := c.poolFor(addr)
		t, err := c.fetchTopology(ctx, def)
		if err == nil {
			var v *view
			if v, err = c.clusterView(t, def); err == nil {
				c.view.Store(v)
				return nil
			}
		}
		lastErr = err
	}
	return fmt.Errorf("gdprkv: cluster bootstrap failed on every seed: %w", lastErr)
}

// install swaps in a view built from t unless the installed one is newer.
// Equal epochs re-install (the same logical view, or an operator
// restarting numbering after re-pointing the map); lower epochs are stale
// answers from a node the rollout has not reached and are dropped.
func (c *Client) install(t Topology) bool {
	old := c.view.Load()
	nv, err := c.clusterView(t, old.def)
	if err != nil {
		return false
	}
	for ; nv.epoch >= old.epoch; old = c.view.Load() {
		if c.view.CompareAndSwap(old, nv) {
			return true
		}
	}
	return false
}

// clusterView builds the routing view of a cluster topology. def answers
// for slots the topology leaves uncovered: it replies MOVED and the
// redirect corrects the view.
func (c *Client) clusterView(t Topology, def *pool) (*view, error) {
	if len(t.Slots) == 0 {
		return nil, errors.New("gdprkv: empty CLUSTER TOPOLOGY reply (is the server in cluster mode?)")
	}
	v := &view{
		epoch:     t.Epoch,
		slots:     make([]*pool, cluster.NumSlots),
		def:       def,
		redirects: c.cfg.redirectBudget,
		peers:     []*pool{def},
	}
	seen := map[*pool]bool{def: true}
	for _, sr := range t.Slots {
		p := c.poolFor(sr.Addr)
		for s := int(sr.Start); s <= int(sr.End); s++ {
			v.slots[s] = p
		}
		if !seen[p] {
			seen[p] = true
			v.peers = append(v.peers, p)
		}
	}
	for s, p := range v.slots {
		if p == nil {
			v.slots[s] = def
		}
	}
	return v, nil
}
