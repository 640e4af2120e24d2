package gdprkv

import (
	"crypto/tls"
	"time"
)

// Defaults applied by Dial when the corresponding option is not given.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultIOTimeout is the per-call I/O deadline used when the
	// context carries no (or a later) deadline, so a dead server can
	// never hang a caller forever.
	DefaultIOTimeout = 10 * time.Second
	// DefaultPoolSize is the number of connections kept per node.
	DefaultPoolSize = 4
	// DefaultRetryBackoff is the pause between read retry attempts.
	DefaultRetryBackoff = 20 * time.Millisecond
	// defaultHealthInterval is how long a connection may sit idle before
	// checkout re-verifies it with a PING.
	defaultHealthInterval = 30 * time.Second
)

// DefaultRedirectBudget is how many MOVED redirects one cluster-routed
// call may follow before giving up (a bound against redirect loops from
// inconsistent node maps).
const DefaultRedirectBudget = 3

// Auto-batching defaults applied by WithAutoBatch for zero arguments.
const (
	// DefaultAutoBatchWindow is how long the first queued call waits for
	// company before its coalesced batch flushes. ~100µs: far below a
	// LAN round trip (so latency cost is marginal) but long enough for a
	// concurrent burst to pile in.
	DefaultAutoBatchWindow = 100 * time.Microsecond
	// DefaultAutoBatchMaxOps flushes a batch early once this many calls
	// have coalesced, bounding both reply latency and command size.
	DefaultAutoBatchMaxOps = 64
)

// config is the resolved option set a Client is built from.
type config struct {
	dialTimeout    time.Duration
	ioTimeout      time.Duration
	tlsConfig      *tls.Config
	actor          string
	purpose        string
	poolSize       int
	retryAttempts  int
	retryBackoff   time.Duration
	healthInterval time.Duration
	clusterMode    bool
	clusterSeeds   []string
	redirectBudget int

	autoBatchWindow time.Duration
	autoBatchMaxOps int
}

func defaultConfig() config {
	return config{
		dialTimeout:    DefaultDialTimeout,
		ioTimeout:      DefaultIOTimeout,
		poolSize:       DefaultPoolSize,
		retryAttempts:  1,
		retryBackoff:   DefaultRetryBackoff,
		healthInterval: defaultHealthInterval,
		redirectBudget: DefaultRedirectBudget,
	}
}

// Option customises a Client at construction.
type Option func(*config)

// WithDialTimeout bounds how long establishing one connection (TCP dial,
// TLS handshake, AUTH/PURPOSE) may take.
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithIOTimeout sets the default per-call I/O deadline applied when the
// call's context has no earlier deadline. It is the floor under every
// call: even ctx = context.Background() cannot hang past it.
func WithIOTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.ioTimeout = d
		}
	}
}

// WithTLS wraps every connection in TLS with cfg, the client half of the
// paper's §4.2 stunnel-style in-transit encryption. The server side is
// typically an internal/tlsproxy server proxy in front of the store.
func WithTLS(cfg *tls.Config) Option {
	return func(c *config) { c.tlsConfig = cfg }
}

// WithActor sends AUTH actor on every new connection before it enters
// the pool, so the whole pool speaks as one authenticated principal.
// Session identity is a construction-time property of a pooled client:
// per-call AUTH would leave the other pooled connections unauthenticated.
func WithActor(actor string) Option {
	return func(c *config) { c.actor = actor }
}

// WithPurpose sends PURPOSE purpose on every new connection before it
// enters the pool, declaring the processing purpose (Art. 5) all calls
// are made under. Use one client per purpose.
func WithPurpose(purpose string) Option {
	return func(c *config) { c.purpose = purpose }
}

// WithPoolSize sets how many connections the client keeps per node.
// Checkout blocks when all are busy.
func WithPoolSize(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithCluster enables cluster-aware routing. The client bootstraps the
// slot map with CLUSTER TOPOLOGY from Dial's addr (falling back to the
// given extra seeds, and sending calls that carry no key to the seed that
// answered), keeps one connection pool per node, routes every
// key-addressed call to the slot owner — hash-tag aware, so
// "pd:{alice}:email" routes with "alice" — and splits MSet/MGet/
// GMPut/GMGet/Del batches per slot before reassembling replies in order.
// Reads go to the owner like writes, never to its announced replicas,
// and retry there under the same WithRetry budget as a standalone
// client's. MOVED and ASK redirects are followed transparently within
// WithRedirectBudget, each MOVED refreshing the slot map. A standalone
// client is a cluster of one node whose redirect budget is 0.
func WithCluster(seeds ...string) Option {
	return func(c *config) {
		c.clusterMode = true
		c.clusterSeeds = append(c.clusterSeeds, seeds...)
	}
}

// WithRedirectBudget overrides how many MOVED or ASK redirects one call
// of a cluster client may follow (minimum 1; default
// DefaultRedirectBudget). A standalone client's budget is always 0: it
// surfaces a redirect reply as ErrMoved or ErrAsk.
func WithRedirectBudget(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.redirectBudget = n
		}
	}
}

// WithAutoBatch turns on implicit micro-batching: concurrent Get, GGet,
// Set, and GPut calls landing within window of each other (or the first
// maxOps of them, whichever fills first) are coalesced into a single
// MGET/GMGET/MSET/GMPUT command and the reply is redistributed
// positionally — existing scalar callers get amortised round trips with
// zero code change. GPut calls coalesce only with calls sharing an
// identical option set (a GMPUT carries one metadata set). In cluster
// mode the coalesced batch is split per slot and reassembled, exactly
// like the explicit batch helpers.
//
// Semantics preserved per call: each caller still receives its own value
// and typed error; a caller's context bounds its wait, but cancelling one
// caller never fails the batch for the others (the flush runs under the
// client's I/O timeout). Writes accepted before Close are flushed by
// Close.
//
// window <= 0 selects DefaultAutoBatchWindow; maxOps <= 0 selects
// DefaultAutoBatchMaxOps. Latency trade-off: a lone call pays up to one
// window of extra latency waiting for company — size the window well
// below your round-trip time.
func WithAutoBatch(window time.Duration, maxOps int) Option {
	return func(c *config) {
		if window <= 0 {
			window = DefaultAutoBatchWindow
		}
		if maxOps <= 0 {
			maxOps = DefaultAutoBatchMaxOps
		}
		c.autoBatchWindow = window
		c.autoBatchMaxOps = maxOps
	}
}

// WithRetry bounds connection-failure retries for idempotent reads, with
// one rule on standalone and cluster clients alike: attempts is the total
// number of tries per read on its owner (minimum 1, the default), backoff
// the pause between tries. Error replies from the server are never
// retried — only dial and I/O failures are. Writes never retry.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(c *config) {
		if attempts > 0 {
			c.retryAttempts = attempts
		}
		if backoff >= 0 {
			c.retryBackoff = backoff
		}
	}
}
