// Package gdprstore is a reproduction of "Analyzing the Impact of GDPR on
// Storage Systems" (Shah, Banakar, Shastri, Wasserman, Chidambaram —
// HotStorage 2019): a Redis-like storage engine retrofitted with the six
// GDPR features the paper derives (timely deletion, monitoring, metadata
// indexing, access control, encryption, data-location management), the
// compliance spectrum it defines, and the benchmark harnesses (YCSB and
// GDPR-persona workloads) that regenerate its tables and figures.
//
// The RESP surface is served from a declarative command registry with a
// middleware pipeline (internal/server), and a batch command family
// (MSET/MGET, GMPUT/GMGET) amortises the per-operation compliance
// overhead the paper measures — one lock acquisition, one AOF append and
// one audit record per batch instead of per key.
//
// The storage engine is lock-striped into power-of-two shards (FNV-1a key
// routing), each owning its own dict (one entry per key: value, deadline,
// sampling slot) and expiry machinery,
// with journal records group-committed outside the shard locks; the
// compliance layer adds per-owner lock stripes and makes each
// read-check-write of one key a conditional operation on its engine
// shard, so operations on independent keys and data subjects scale with
// GOMAXPROCS instead of serialising on a global mutex. Cross-shard
// operations (FLUSHALL, snapshot, batch writes) follow a deterministic
// lock order — see DESIGN.md §5.
//
// An HTTP ops surface (internal/ops, enabled with -ops-addr) exposes the
// same facts operationally, all rendered from the shared INFO section
// registry, where each exported number is declared once: /info serves the
// sections as JSON, /metrics is a Prometheus text exposition whose core
// gauges are the paper's compliance promises as live lag numbers
// (gdprkv_retention_lag_seconds, gdprkv_erasure_lag_seconds,
// gdprkv_audit_queue_depth), /events streams every section over SSE, and
// / is an embedded auto-refreshing dashboard — see DESIGN.md §14. The harness
// scenarios retention-storm and multi-regulation (cmd/experiments -run)
// drive those gauges to their extremes and report compliance-overhead
// numbers.
//
// Client applications import pkg/gdprkv, the public SDK: a
// context-first, connection-pooled, replica-aware client whose server
// rejections decode to typed sentinels (errors.Is) — see DESIGN.md §9
// for the architecture and api/gdprkv.golden for the frozen surface.
//
// The implementation lives under internal/ — see DESIGN.md for the system
// inventory (command table, middleware order, batch API, sharding). The
// repository benchmark is the bench/ module; bench/README.md says how to
// run it.
package gdprstore
