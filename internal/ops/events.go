package ops

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"gdprstore/internal/metrics"
)

// statsEvent is the JSON payload of one SSE tick: the live numbers the
// dashboard renders, with rates derived from the delta since the previous
// tick on this stream.
type statsEvent struct {
	Seq             uint64  `json:"seq"`
	Commands        uint64  `json:"commands"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	P50Micros       int64   `json:"p50_us"`
	P99Micros       int64   `json:"p99_us"`
	DBSize          int     `json:"dbsize"`
	RetentionLagMs  int64   `json:"retention_lag_ms"`
	RetentionQueue  int     `json:"retention_overdue"`
	ErasureLagMs    int64   `json:"erasure_lag_ms"`
	ErasurePending  int     `json:"erasure_pending_owners"`
	AuditQueueDepth int     `json:"audit_queue_depth"`
	AuditDropped    uint64  `json:"audit_dropped"`
	ReplRole        string  `json:"repl_role"`
	ReplOffset      int64   `json:"repl_offset"`
	Replicas        int     `json:"replicas"`
}

// handleEvents streams periodic stats deltas as Server-Sent Events. The
// tick period comes from the `interval` query parameter (milliseconds,
// default 1000, floor 50). The first event is sent immediately so a
// client never waits a full period for its first datum. The stream ends
// when the client disconnects or the ops server closes.
func (o *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			http.Error(w, "bad interval", http.StatusBadRequest)
			return
		}
		if ms < 50 {
			ms = 50
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	t := time.NewTicker(interval)
	defer t.Stop()
	// The rate is measured on the store's clock, like every duration the
	// server reports.
	clk := o.rs.Store().Config().Clock
	var seq uint64
	prevCommands := o.rs.Commands()
	prevAt := clk.Now()
	send := func() bool {
		seq++
		now := clk.Now()
		cmds := o.rs.Commands()
		ev := o.snapshotEvent()
		ev.Seq = seq
		if dt := now.Sub(prevAt).Seconds(); dt > 0 {
			ev.OpsPerSec = float64(cmds-prevCommands) / dt
		}
		prevCommands, prevAt = cmds, now
		b, _ := json.Marshal(ev)
		if _, err := w.Write([]byte("event: stats\ndata: " + string(b) + "\n\n")); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-o.done:
			return
		case <-t.C:
			if !send() {
				return
			}
		}
	}
}

// snapshotEvent gathers everything but the stream-local sequence and rate.
func (o *Server) snapshotEvent() statsEvent {
	st := o.rs.Store()
	rt := st.RetentionStats()
	er := st.ErasureStats()
	rp := o.rs.ReplStatus()
	ev := statsEvent{
		Commands:       o.rs.Commands(),
		DBSize:         st.Engine().Len(),
		RetentionLagMs: rt.Lag.Milliseconds(),
		RetentionQueue: rt.OverdueRecords,
		ErasureLagMs:   er.SweepLag.Milliseconds(),
		ErasurePending: er.PendingOwners,
		ReplRole:       rp.Role,
		ReplOffset:     rp.Offset,
		Replicas:       rp.ConnectedReplicas,
	}
	if t := st.Trail(); t != nil {
		as := t.Stats()
		ev.AuditQueueDepth = as.QueueDepth
		ev.AuditDropped = as.Dropped
	}
	// Aggregate latency across every command by merging the per-op
	// histograms into a scratch one — cheap (fixed 1280 buckets per op)
	// and lock-free against the hot path.
	agg := metrics.NewHistogram()
	ops := o.rs.CommandStats()
	for _, name := range ops.Names() {
		agg.Merge(ops.Get(name).Hist)
	}
	if agg.Count() > 0 {
		ev.P50Micros = agg.Quantile(0.5).Microseconds()
		ev.P99Micros = agg.Quantile(0.99).Microseconds()
	}
	return ev
}
