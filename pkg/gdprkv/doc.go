// Package gdprkv is the public Go SDK for the gdprkv server: a
// context-first, connection-pooled, cluster-aware client
// over the RESP wire protocol, covering the vanilla Redis-style surface
// (Set/Get/Del/Expire/Scan/...), the GDPR command family (GPut/GGet/
// GetUser/ForgetUser/Object/...), and the amortising batch family
// (MSet/MGet/GMPut/GMGet).
//
// # Construction
//
// A Client is built with functional options and verified against the
// primary at dial time:
//
//	c, err := gdprkv.Dial(ctx, "db0:6380",
//		gdprkv.WithActor("shop-backend"),
//		gdprkv.WithPurpose("order-fulfilment"),
//		gdprkv.WithPoolSize(8),
//	)
//
// WithActor and WithPurpose run the AUTH/PURPOSE handshake on every
// pooled connection, so the whole client speaks as one authenticated
// principal under one declared processing purpose (Art. 5). Use one
// client per (actor, purpose) pair.
//
// # Deadlines and cancellation
//
// Every method takes a leading context.Context. The context's deadline
// becomes the connection's read/write deadline for the call; when the
// context has no (or a later) deadline, WithIOTimeout's default applies
// instead — a dead server surfaces as a timeout, never a hang. A
// context cancelled while a checkout is blocked on an exhausted pool
// unblocks immediately.
//
// # Pooling and concurrency
//
// The Client is safe for concurrent use from any number of goroutines.
// Each call checks a connection out of a per-node pool for exactly the
// call's duration; checkout health-checks idle connections and redials
// broken ones transparently.
//
// # Routing
//
// Every call is routed by one rule, on standalone and cluster clients
// alike; a standalone client is a cluster of one node. Every call goes to
// the primary that owns the key (on a standalone client, the primary),
// never to a replica. A replica holds a copy and lags, so it may still
// hold a subject whose erasure the primary has acknowledged; the server
// answers a data read sent to a replica with MOVED naming its primary.
// Idempotent reads (Get, MGet, GGet, GMGet, TTL, Scan) retry on their
// owner after a connection failure, bounded by WithRetry (default one
// try). Server error replies are authoritative and never retried; writes
// are never retried at all.
//
// # Errors
//
// Server rejections decode into *ServerError values that match typed
// sentinels under errors.Is — ErrNotFound, ErrDenied, ErrBadPurpose,
// ErrPolicy, ErrErased, ErrBaseline, ErrReadOnly — produced by a single
// RESP-error mapper that shares its code table with the server
// (internal/wirecode), so the two ends cannot drift.
//
// # Pipelining
//
// Pipeline queues commands client-side and submits them in one shot:
//
//	p := c.Pipeline()
//	p.Set("a", va).Set("b", vb).Get("a")
//	res, err := p.Exec(ctx) // 3 positional PipeResults, ~1 round trip
//
// Exec writes every queued command over one connection per target node,
// flushes once, and reads the replies back in order, so an N-deep
// pipeline pays one round trip instead of N. Results are positional:
// res[i] belongs to the i-th queued command, and an error reply in the
// middle fills its own slot without desyncing later replies. The
// returned error is reserved for transport-level failures; server
// rejections live only in the slots. In cluster mode the queue is split
// per slot owner, executed concurrently, and reassembled, following
// MOVED redirects per op. A Pipeline is not concurrency-safe — build
// and Exec from one goroutine.
//
// # Implicit micro-batching
//
// WithAutoBatch gives concurrent scalar callers the same amortisation
// with zero code change: Get/GGet/Set/GPut calls landing within the
// flush window (default 100µs, DefaultAutoBatchWindow) coalesce into
// one MGET/GMGET/MSET/GMPUT and the reply is redistributed per caller.
// Each caller keeps its own value and typed error; cancelling one
// caller never fails the batch for the rest; writes accepted before
// Close are flushed by Close. A lone call pays up to one window of
// extra latency — keep the window well under the round-trip time.
//
// # Cluster mode
//
// WithCluster turns on hash-slot routing against a fleet of primaries:
// the client bootstraps the slot map with CLUSTER TOPOLOGY, pools
// connections per node, routes each key-addressed call to its slot owner
// (hash-tag aware: "pd:{alice}:email" routes with "alice"), splits the
// batch helpers per slot, and follows MOVED redirects within
// WithRedirectBudget, refreshing the slot map on each one. A standalone
// client has a redirect budget of 0 and surfaces MOVED as ErrMoved. GDPR
// rights calls (ForgetUser, GetUser, ...) go to the data subject's slot
// node, the one node that holds the subject: in cluster mode a compliant
// write must tag its key with its owner ("pd:{alice}:email" for owner
// "alice"), or the server refuses it with ErrCrossSlot. The
// replica addresses in the cluster map are promotion candidates, not
// read targets.
//
// During a live slot migration the client also follows ASK redirects:
// an ASK reply means "this one key has already moved" — the command is
// replayed on the destination behind a one-shot ASKING, counted in
// Stats().Asks, and the slot map is left untouched (only MOVED rewrites
// it). Pipelines follow ASK per operation. When a primary dies
// mid-call, the client refreshes its topology from the surviving nodes
// (counted in Stats().Failovers) and returns the transport error; the
// caller's retry lands on the promoted replica. Topology exposes the
// server's versioned view — epoch, slot ranges, active migrations — for
// operators and tests; refreshes carrying an older epoch than the
// installed one are ignored.
//
// # Migrating from internal/client
//
// The deprecated internal/client shim has been removed. Differences for
// code still on the old API:
//
//   - every method gained a leading ctx argument;
//   - Dial(addr) became Dial(ctx, addr, ...Option);
//   - Auth/Purpose methods became WithActor/WithPurpose options (session
//     state is per-connection, so a pooled client fixes it at dial);
//   - ErrNil became ErrNotFound; ServerError became a struct matching
//     typed sentinels with errors.Is instead of string prefixes;
//   - GDPRPutArgs became PutOptions with []string purposes/recipients
//     and a time.Duration TTL.
package gdprkv
