package gdprkv

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// This file implements implicit micro-batching (WithAutoBatch): scalar
// Get/GGet/Set/GPut calls from concurrent goroutines that land within one
// flush window are coalesced into a single MGET/GMGET/MSET/GMPUT command
// and the reply is redistributed positionally. Callers keep the scalar
// API and its semantics — each one still gets its own value and typed
// error — but an N-goroutine burst pays ~1 round trip instead of N. In
// cluster mode the flush goes through the batch helpers, which already
// split per slot and reassemble in order, so coalescing composes with
// slot routing for free. See DESIGN.md §12.

// batchKind discriminates the four coalescable operation classes.
type batchKind uint8

const (
	kindGet batchKind = iota
	kindGGet
	kindSet
	kindGPut
)

// batchGroup is one in-flight coalescing bucket: every queued op of one
// kind (and, for GPut, one identical option set) waiting for the flush.
// Results are written by exactly one flusher, then done is closed; waiters
// read their slot only after done, so no per-op locking is needed.
type batchGroup struct {
	kind batchKind
	opts PutOptions // kindGPut: the shared metadata set

	skey []string // queued keys
	vals [][]byte // kindSet/kindGPut: queued values

	timer *time.Timer
	done  chan struct{}

	// results, one slot per queued op, valid after done is closed.
	res  [][]byte
	errs []error
	err  error // whole-group error (transport/MSET failure), when errs is nil
}

// wait blocks until the group flushes or ctx is done, then returns op i's
// result. An abandoned wait does not abandon the op: the flush still runs
// and, for writes, still applies — the caller just stops listening, the
// same contract a cancelled in-flight scalar write has.
func (g *batchGroup) wait(ctx context.Context, i int) ([]byte, error) {
	select {
	case <-g.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if g.err != nil {
		return nil, g.err
	}
	if g.errs != nil && g.errs[i] != nil {
		return nil, g.errs[i]
	}
	if g.res != nil {
		return g.res[i], nil
	}
	return nil, nil
}

// batcher owns the pending groups and their flush timers.
type batcher struct {
	c      *Client
	window time.Duration
	maxOps int

	mu     sync.Mutex
	closed bool
	groups map[string]*batchGroup
}

func newBatcher(c *Client, window time.Duration, maxOps int) *batcher {
	return &batcher{
		c:      c,
		window: window,
		maxOps: maxOps,
		groups: make(map[string]*batchGroup),
	}
}

// groupKey buckets ops so only same-command (and, for GPut, same-option)
// calls coalesce: a GMPUT carries exactly one metadata set. Each option
// token is length-prefixed, so the key is injective: option values are
// arbitrary bytes and no separator can be kept out of them.
func groupKey(kind batchKind, opts PutOptions) string {
	switch kind {
	case kindGet:
		return "g"
	case kindGGet:
		return "G"
	case kindSet:
		return "s"
	default:
		k := []byte("P")
		for _, tok := range opts.optionArgs() {
			k = strconv.AppendInt(k, int64(len(tok)), 10)
			k = append(append(k, ':'), tok...)
		}
		return string(k)
	}
}

// do is the scalar entry point Client routes through under WithAutoBatch:
// it adds one op to its coalescing bucket, arming the window timer on the
// bucket's first op and flushing inline when the bucket reaches maxOps,
// then waits for the op's result.
func (b *batcher) do(ctx context.Context, kind batchKind, opts PutOptions, key string, val []byte) ([]byte, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	gk := groupKey(kind, opts)
	g := b.groups[gk]
	if g == nil {
		g = &batchGroup{kind: kind, opts: opts, done: make(chan struct{})}
		b.groups[gk] = g
		g.timer = time.AfterFunc(b.window, func() { b.take(gk, g) })
	}
	i := len(g.skey)
	g.skey = append(g.skey, key)
	if kind == kindSet || kind == kindGPut {
		g.vals = append(g.vals, val)
	}
	full := len(g.skey) >= b.maxOps
	if full {
		delete(b.groups, gk)
	}
	b.mu.Unlock()
	if full {
		g.timer.Stop()
		b.flush(g)
	}
	return g.wait(ctx, i)
}

// take removes g from the pending map (when still there — a maxOps flush
// may have raced the timer) and flushes it. Runs on the timer goroutine.
func (b *batcher) take(gk string, g *batchGroup) {
	b.mu.Lock()
	if b.groups[gk] != g {
		b.mu.Unlock()
		return
	}
	delete(b.groups, gk)
	b.mu.Unlock()
	b.flush(g)
}

// flush submits one group as its batch command and distributes the reply.
// It runs under context.Background(): the per-call I/O deadline
// (WithIOTimeout) still bounds the wire time, and each waiter's own ctx
// bounds its wait — but one caller's cancellation must not fail the
// other callers sharing the round trip.
func (b *batcher) flush(g *batchGroup) {
	defer close(g.done)
	ctx := context.Background()
	b.c.stats.autoBatchFlushes.Add(1)
	b.c.stats.autoBatchOps.Add(uint64(len(g.skey)))
	switch g.kind {
	case kindGet:
		vals, err := b.c.MGet(ctx, g.skey...)
		if err != nil {
			g.err = err
			return
		}
		g.res = vals
		g.errs = make([]error, len(vals))
		for i, v := range vals {
			if v == nil {
				g.errs[i] = ErrNotFound
			}
		}
	case kindGGet:
		bvs, err := b.c.GMGet(ctx, g.skey...)
		if err != nil {
			g.err = err
			return
		}
		g.res = make([][]byte, len(bvs))
		g.errs = make([]error, len(bvs))
		for i, bv := range bvs {
			g.res[i] = bv.Value
			g.errs[i] = bv.Err
		}
	case kindSet:
		g.err = b.c.MSet(ctx, g.skey, g.vals)
	case kindGPut:
		g.err = b.c.GMPut(ctx, g.skey, g.vals, g.opts)
	}
}

// close rejects new ops and synchronously flushes everything pending, so
// accepted writes are submitted before the pools tear down. Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	pending := make([]*batchGroup, 0, len(b.groups))
	for gk, g := range b.groups {
		delete(b.groups, gk)
		pending = append(pending, g)
	}
	b.mu.Unlock()
	for _, g := range pending {
		g.timer.Stop()
		b.flush(g)
	}
}
