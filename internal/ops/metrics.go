package ops

import (
	"net/http"

	"gdprstore/internal/metrics"
)

// Quantiles exported on every per-command latency summary.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// handleMetrics renders the Prometheus text exposition.
func (o *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(o.renderMetrics()))
}

// renderMetrics builds the exposition from the INFO section registry:
// every field that declares a metric is one sample, and every section
// renders whatever its feature's state, so scrapers and alert rules never
// see a family appear or vanish with configuration. The per-command
// latency summaries follow. It takes no locks beyond the snapshot reads
// themselves, so scraping never perturbs the command hot path.
func (o *Server) renderMetrics() string {
	e := metrics.NewExposition()
	for _, snap := range o.sections() {
		for _, f := range snap.Fields {
			switch {
			case f.Metric == "":
			case f.Counter:
				e.Counter(f.Metric, f.Help, f.Num)
			default:
				e.Gauge(f.Metric, f.Help, f.Num)
			}
		}
	}
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
