package ops

import (
	"net/http"

	"gdprstore/internal/metrics"
)

// Quantiles exported on every per-command latency summary.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// handleMetrics renders the Prometheus text exposition. Every compliance
// gauge is emitted unconditionally — 0 when the feature is disabled — so
// scrapers and alert rules never see series appear and vanish with
// configuration.
func (o *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(o.renderMetrics()))
}

// renderMetrics builds the exposition text from point-in-time snapshots.
// It takes no locks beyond the snapshot reads themselves, so scraping
// never perturbs the command hot path.
func (o *Server) renderMetrics() string {
	e := metrics.NewExposition()
	st := o.rs.Store()

	// Server vitals.
	e.Counter("gdprkv_commands_total", "RESP commands served", float64(o.rs.Commands()))
	e.Gauge("gdprkv_dbsize", "keys currently stored", float64(st.Engine().Len()))

	// Retention enforcement — the storage-limitation analogue of
	// replication lag (§3.1: "data cannot be stored indefinitely").
	rt := st.RetentionStats()
	e.Gauge("gdprkv_retention_lag_seconds",
		"age of the oldest record past its retention deadline but not yet reclaimed",
		rt.Lag.Seconds())
	e.Gauge("gdprkv_retention_overdue_records",
		"records past their retention deadline awaiting reclamation",
		float64(rt.OverdueRecords))
	e.Gauge("gdprkv_retention_tracked_deadlines",
		"keys carrying a retention deadline", float64(rt.TrackedDeadlines))
	e.Counter("gdprkv_retention_expired_total",
		"keys reclaimed by retention enforcement", float64(rt.ExpiredTotal))

	// Erasure (Art. 17) — crypto-shredding plus lazy-delete sweep.
	er := st.ErasureStats()
	e.Gauge("gdprkv_erasure_lag_seconds",
		"age of the oldest crypto-shredded owner whose ciphertext the sweep has not reclaimed",
		er.SweepLag.Seconds())
	e.Gauge("gdprkv_erasure_pending_owners",
		"shredded owners with unreclaimed ciphertext", float64(er.PendingOwners))
	e.Gauge("gdprkv_erasure_pending_records",
		"records still attributed to pending owners", float64(er.PendingRecords))
	e.Gauge("gdprkv_erasure_shredded_owners",
		"owners whose data key is destroyed", float64(er.ShreddedOwners))
	e.Counter("gdprkv_erasure_reclaimed_total",
		"dead records physically deleted by sweeps", float64(er.Reclaimed))
	e.Counter("gdprkv_erasure_sweep_cycles_total",
		"lazy-delete sweep cycles run", float64(er.SweepCycles))
	e.Counter("gdprkv_keyring_cipher_hits_total",
		"prepared-cipher lookups served from the keyring's cache", float64(er.CipherHits))
	e.Counter("gdprkv_keyring_cipher_misses_total",
		"prepared-cipher lookups that built a cipher", float64(er.CipherMisses))

	// Audit pipeline (Art. 30) pressure.
	var depth, capQ, enq, proc, drop, sinkErrs, auditBytes float64
	if t := st.Trail(); t != nil {
		as := t.Stats()
		depth, capQ = float64(as.QueueDepth), float64(as.QueueCap)
		enq, proc = float64(as.Enqueued), float64(as.Processed)
		drop, sinkErrs = float64(as.Dropped), float64(as.SinkErrors)
		auditBytes = float64(as.Size)
	}
	e.Gauge("gdprkv_audit_queue_depth", "audit records waiting in the pipeline queue", depth)
	e.Gauge("gdprkv_audit_queue_capacity", "audit pipeline queue capacity", capQ)
	e.Counter("gdprkv_audit_enqueued_total", "audit records accepted into the pipeline", enq)
	e.Counter("gdprkv_audit_processed_total", "audit records durably written", proc)
	e.Counter("gdprkv_audit_dropped_total", "audit records shed under backpressure", drop)
	e.Counter("gdprkv_audit_sink_errors_total", "audit sink write failures", sinkErrs)

	// What the two logs hold on disk: the AOF (Art. 17's residue until a
	// rewrite) and the trail (Art. 30's cost, growing with every read).
	var aofBytes float64
	if l := st.Log(); l != nil {
		aofBytes = float64(l.Size())
	}
	e.Gauge("gdprkv_audit_bytes", "audit trail file size in bytes", auditBytes)
	e.Gauge("gdprkv_aof_bytes", "append-only file size in bytes", aofBytes)

	// Replication.
	rp := o.rs.ReplStatus()
	role := 0.0
	if rp.Role == "replica" {
		role = 1
	}
	e.Gauge("gdprkv_replication_role", "0 when primary, 1 when replica", role)
	e.Gauge("gdprkv_replication_offset_bytes", "replication journal offset", float64(rp.Offset))
	e.Gauge("gdprkv_connected_replicas", "replicas attached to this primary", float64(rp.ConnectedReplicas))

	// Per-command latency summaries, labelled by op.
	ops := o.rs.CommandStats()
	for _, name := range ops.Names() {
		h := ops.Get(name).Hist
		if h.Count() == 0 {
			continue
		}
		e.Summary("gdprkv_command_duration_seconds", "per-command service latency",
			h, summaryQuantiles, metrics.Label{Name: "op", Value: name})
	}
	return e.String()
}
