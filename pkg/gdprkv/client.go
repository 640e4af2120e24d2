package gdprkv

import (
	"context"
	"sync"
	"sync/atomic"
)

// Client is a concurrency-safe, pooled client for a gdprkv deployment.
// It is safe for use from any number of goroutines: every call checks a
// connection out of a per-node pool for exactly the call's duration, so
// replies can never interleave.
//
// Routing: every call goes to the primary, or in cluster mode to the
// owner of its key's slot (dispatch.go). Replicas hold copies but serve
// no data: a replica lags, and may still hold a subject whose erasure the
// primary has acknowledged. Idempotent reads (Get, MGet, GGet, GMGet,
// TTL, Scan) retry on their owner after a transport failure under
// WithRetry; writes, GDPR rights operations and Do calls never retry.
type Client struct {
	cfg    config
	closed atomic.Bool

	// view is the immutable routing snapshot every call reads; a cluster
	// refresh swaps it whole.
	view atomic.Pointer[view]

	// mu guards pools, one per node address, created on first sight and
	// kept for the client's lifetime.
	mu    sync.Mutex
	pools map[string]*pool

	// batcher coalesces concurrent scalar calls (batcher.go); nil unless
	// WithAutoBatch was given.
	batcher *batcher

	stats struct {
		primaryReads, writes, retries, redials    atomic.Uint64
		redirects, slotRefreshes, asks, failovers atomic.Uint64
		pipelineExecs, pipelineOps                atomic.Uint64
		autoBatchFlushes, autoBatchOps            atomic.Uint64
	}
}

// Dial constructs a Client for the primary at addr, applying opts, and
// verifies the primary is reachable with one pooled PING. With
// WithCluster, the slot map is learned from addr (or the extra seeds)
// instead.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{cfg: cfg, pools: make(map[string]*pool)}
	if c.cfg.autoBatchWindow > 0 {
		c.batcher = newBatcher(c, c.cfg.autoBatchWindow, c.cfg.autoBatchMaxOps)
	}
	var err error
	if cfg.clusterMode {
		err = c.bootstrap(ctx, append([]string{addr}, cfg.clusterSeeds...))
	} else {
		// One node covers every slot, and no redirect is ever followed.
		p := c.poolFor(addr)
		c.view.Store(&view{slots: []*pool{p}, def: p})
		err = c.Ping(ctx)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// poolFor returns the pool for one node address, creating it on first
// sight. A pool dials lazily, so creating one costs no round trip.
func (c *Client) poolFor(addr string) *pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[addr]
	if !ok {
		p = newPool(addr, &c.cfg, &c.stats.redials)
		c.pools[addr] = p
		if c.closed.Load() {
			// Close already drained the map: refuse checkouts from here on.
			p.close()
		}
	}
	return p
}

// Close releases every pooled connection. In-flight calls fail with
// ErrClosed or a transport error. With WithAutoBatch, pending coalesced
// operations are flushed first — an accepted write is submitted, never
// silently dropped.
func (c *Client) Close() error {
	if c.batcher != nil {
		// Drain before the closed flag flips: the flush still needs pools.
		c.batcher.close()
	}
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pools {
		p.close()
	}
	return nil
}

// Stats is a snapshot of the client's routing and pool counters.
type Stats struct {
	// PrimaryReads counts read calls (Get, MGet per slot group, GGet,
	// GMGet per slot group, TTL, Scan); each counts once, whatever its
	// retries.
	PrimaryReads uint64
	// Writes counts primary-routed calls (writes, rights ops, Do).
	Writes uint64
	// Retries counts read attempts after the first, each one made on the
	// owner after a connection failure.
	Retries uint64
	// Redials counts pooled connections evicted as broken and replaced.
	Redials uint64
	// Redirects counts MOVED redirects followed in cluster mode.
	Redirects uint64
	// SlotRefreshes counts successful slot-map refreshes triggered by
	// MOVED redirects in cluster mode.
	SlotRefreshes uint64
	// Asks counts ASK redirects followed in cluster mode: one-shot hops
	// to a migration destination, taken without changing the slot map.
	Asks uint64
	// Failovers counts topology refreshes triggered by a node that
	// stopped answering: the client asked a surviving node for the
	// current epoch-stamped topology and installed a newer view.
	Failovers uint64
	// PipelineExecs counts Pipeline.Exec submissions.
	PipelineExecs uint64
	// PipelineOps counts commands submitted through pipelines.
	PipelineOps uint64
	// AutoBatchFlushes counts coalesced batches flushed by WithAutoBatch.
	AutoBatchFlushes uint64
	// AutoBatchOps counts scalar calls that rode an auto-batch flush; the
	// ratio AutoBatchOps/AutoBatchFlushes is the achieved coalescing
	// factor.
	AutoBatchOps uint64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		PrimaryReads:     c.stats.primaryReads.Load(),
		Writes:           c.stats.writes.Load(),
		Retries:          c.stats.retries.Load(),
		Redials:          c.stats.redials.Load(),
		Redirects:        c.stats.redirects.Load(),
		SlotRefreshes:    c.stats.slotRefreshes.Load(),
		Asks:             c.stats.asks.Load(),
		Failovers:        c.stats.failovers.Load(),
		PipelineExecs:    c.stats.pipelineExecs.Load(),
		PipelineOps:      c.stats.pipelineOps.Load(),
		AutoBatchFlushes: c.stats.autoBatchFlushes.Load(),
		AutoBatchOps:     c.stats.autoBatchOps.Load(),
	}
}
