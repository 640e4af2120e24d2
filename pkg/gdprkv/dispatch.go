package gdprkv

import (
	"context"
	"strings"
	"time"

	"gdprstore/internal/cluster"
	"gdprstore/internal/resp"
	"gdprstore/internal/wirecode"
)

// This file is the client's one dispatch path. Every call — scalar
// methods, the batch helpers, Pipeline.Exec and the auto-batcher's
// flush — is routed by route against the installed view and run by send,
// which owns checkout, transport-vs-reply classification, read retries on
// the owner, MOVED/ASK following with slot refresh, failover refresh and
// the routing counters. A standalone client is a cluster of one: its view
// is one node covering every slot with a redirect budget of 0, so the
// same loop serves both modes. Every call goes to its slot's owner, never
// to a replica: a replica lags, and may still hold a subject whose
// erasure the owner has acknowledged. See DESIGN.md §9.

// view is an immutable routing snapshot. slots maps each slot to its
// owner's pool; a one-entry table covers every slot (a standalone
// client). def takes the calls that carry no key: the primary, or a
// cluster client's bootstrap seed. redirects is how many MOVED/ASK hops
// one call may take (0 surfaces them). peers are the primaries a failover
// refresh may ask for the topology, def first; a standalone view has
// none.
type view struct {
	epoch     uint64
	slots     []*pool
	def       *pool
	redirects int
	peers     []*pool
}

// slotOf is key's index into v.slots. A one-entry table needs no hash.
func (v *view) slotOf(key string) uint16 {
	if len(v.slots) == 1 {
		return 0
	}
	return cluster.Slot(key)
}

// split groups batch indices by slot in first-appearance order,
// preserving each group's relative order, so a cross-slot batch becomes
// one same-slot command per group (the server rejects mixed-slot batches
// with CROSSSLOT) and the replies reassemble positionally. On a
// standalone view every key lands in the one group.
func (v *view) split(keys []string) [][]int {
	index := make(map[uint16]int)
	var groups [][]int
	for i, k := range keys {
		s := v.slotOf(k)
		gi, ok := index[s]
		if !ok {
			gi = len(groups)
			index[s] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// callClass decides how send retries and counts a call.
type callClass uint8

const (
	// classPipe is a pipeline bucket or a redirect hop: no retry, counted
	// by whoever issued it.
	classPipe callClass = iota
	// classWrite is never retried (a transport failure mid-write is
	// ambiguous) and counts in Writes.
	classWrite
	// classRead is idempotent: it retries on the owner after a transport
	// failure, under WithRetry, and counts in PrimaryReads.
	classRead
)

// target is where one call goes: the owner, and whether the call is an
// ASK one-shot.
type target struct {
	class  callClass
	owner  *pool
	asking bool
	hops   int                // redirects already followed on the way here
	pairs  *map[string][]byte // where a one-command call's key/value reply goes (roundTrip)
}

// route resolves key against the installed view: the owner of key's slot,
// or the default node when key is empty.
func (c *Client) route(key string) *pool {
	v := c.view.Load()
	if key == "" {
		return v.def
	}
	return v.slots[v.slotOf(key)]
}

// call routes and sends one command, returning its reply with error
// replies decoded into *ServerError.
func (c *Client) call(ctx context.Context, class callClass, key string, cmd [][]byte) (resp.Value, error) {
	cmds := [1][][]byte{cmd}
	var res [1]PipeResult
	c.send(ctx, target{class: class, owner: c.route(key)}, cmds[:], res[:])
	return res[0].Value, res[0].Err
}

// send runs cmds against t and leaves one outcome per command in res:
// the reply, its decoded error reply, or the transport error that kept
// it from being read. Only transport failures are retried, and only for
// reads: WithRetry's attempts on the owner, with its backoff between
// them. A failed node prompts a failover refresh before the next try. A
// MOVED or ASK reply is followed per command while the view's redirect
// budget lasts. The returned error is the transport failure that ended
// the exchange, if any.
func (c *Client) send(ctx context.Context, t target, cmds [][][]byte, res []PipeResult) error {
	if c.closed.Load() {
		return fail(res, ErrClosed)
	}
	attempts := 1
	switch t.class {
	case classWrite:
		c.stats.writes.Add(1)
	case classRead:
		c.stats.primaryReads.Add(1)
		attempts = c.cfg.retryAttempts
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.stats.retries.Add(1)
			if err = pause(ctx, c.cfg.retryBackoff); err != nil {
				fail(res, err)
				break
			}
		}
		var n int
		n, err = c.exchange(ctx, t, cmds, res)
		fail(res[n:], err)
		if err == nil || ctx.Err() != nil {
			break
		}
		c.failover(ctx, t.owner)
	}
	for j := range res {
		if next, asking, ok := c.redirect(ctx, res[j].Err, t.hops); ok {
			hop := target{class: classPipe, owner: next, asking: asking, hops: t.hops + 1, pairs: t.pairs}
			c.send(ctx, hop, cmds[j:j+1], res[j:j+1])
		}
	}
	return err
}

// fail stores err in every slot of res and returns it; a nil err leaves
// res alone.
func fail(res []PipeResult, err error) error {
	if err != nil {
		for i := range res {
			res[i] = PipeResult{Err: err}
		}
	}
	return err
}

// pause waits out one retry backoff, or returns the context's error.
func pause(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exchange is one attempt on t's owner: check a connection out of its
// pool, run cmds on it (behind a one-shot ASKING when t asks), check it
// back in. It returns how many replies it read; error replies are
// outcomes in res, and only a transport failure is returned.
func (c *Client) exchange(ctx context.Context, t target, cmds [][][]byte, res []PipeResult) (int, error) {
	cn, err := t.owner.get(ctx)
	if err != nil {
		return 0, err
	}
	n, err := cn.roundTrip(ctx, c.cfg.ioTimeout, t.asking, t.pairs, cmds, res)
	t.owner.put(cn)
	return n, err
}

// redirect reads err as a MOVED or ASK reply and, while hops is inside
// the view's budget, returns the node to follow it to. A MOVED means the
// slot changed owner: the view is refreshed from the redirect target,
// which is authoritative for the move, so a stale client converges after
// one collision. An ASK is a one-shot hop to a migration destination
// that leaves the view alone. An exhausted budget surfaces the reply
// itself (ErrMoved/ErrAsk under errors.Is).
func (c *Client) redirect(ctx context.Context, err error, hops int) (p *pool, asking, ok bool) {
	se, isServer := err.(*ServerError)
	if !isServer || (se.Code != wirecode.Moved && se.Code != wirecode.Ask) || hops >= c.view.Load().redirects {
		return nil, false, false
	}
	fields := strings.Fields(se.Message) // "<slot> <addr>"
	if len(fields) != 2 {
		return nil, false, false
	}
	p = c.poolFor(fields[1])
	if se.Code == wirecode.Ask {
		c.stats.asks.Add(1)
		return p, true, true
	}
	c.stats.redirects.Add(1)
	if t, err := c.fetchTopology(ctx, p); err == nil && c.install(t) {
		c.stats.slotRefreshes.Add(1)
	}
	return p, false, true
}

// failover converges the client after failed stopped answering: it asks
// the view's other primaries for the topology and installs the first
// answer that is not stale. The call that saw the failure still reports
// it — a write cannot be retried — but the next one routes around the
// dead node to the replica promoted in its place.
func (c *Client) failover(ctx context.Context, failed *pool) {
	for _, p := range c.view.Load().peers {
		if p == failed {
			continue
		}
		t, err := c.fetchTopology(ctx, p)
		if err != nil {
			continue
		}
		if c.install(t) {
			c.stats.failovers.Add(1)
		}
		return
	}
}
