package server

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
)

// This file is the shared INFO section registry: every section (name,
// applicability, ordered key/value fields) is declared exactly once, and
// every rendering — the RESP `INFO` text reply, the ops server's
// `GET /info` JSON, its `/metrics` exposition and its `/events` stream —
// is generated from it. Adding a section or a field here is the whole
// job: the INFO summary line, the `INFO <section>` argument validation,
// the full-INFO composition and the HTTP surface all follow, so the
// protocols cannot drift (ops asserts parity in its tests). A field that
// carries a metric declares its Prometheus family on the same line.

// InfoField is one key:value line of an INFO section. A field with a
// Metric is also a /metrics sample of that family, valued Num.
type InfoField struct {
	Key   string
	Value string
	// Metric names the field's Prometheus family, "" for none; Help is
	// the family's HELP text and Counter selects counter over gauge.
	Metric  string
	Help    string
	Counter bool
	// Num is the field's number: the sample value, in seconds for a
	// duration whose INFO text is in milliseconds.
	Num float64
}

// gauge exports f on /metrics as a gauge family.
func (f InfoField) gauge(name, help string) InfoField {
	f.Metric, f.Help = name, help
	return f
}

// counter exports f on /metrics as a counter family.
func (f InfoField) counter(name, help string) InfoField {
	f = f.gauge(name, help)
	f.Counter = true
	return f
}

// InfoSnapshot is one rendered section: its name and its fields in
// report order.
type InfoSnapshot struct {
	Name   string
	Fields []InfoField
}

// infoSection declares one section of the registry. present gates
// inclusion in the argument-less full INFO report; an explicitly
// requested section always renders, and lists every field whatever the
// state of its feature (zero when the feature is off), so no key and no
// /metrics family appears or vanishes with configuration.
type infoSection struct {
	name    string
	present func(s *Server) bool
	fields  func(s *Server) []InfoField
}

// infoRegistry lists every section in report order.
var infoRegistry = []infoSection{
	{"gdprstore", func(*Server) bool { return true }, (*Server).gdprstoreFields},
	{"audit", func(s *Server) bool { return s.store.Trail() != nil }, (*Server).auditFields},
	{"erasure", func(s *Server) bool { return s.store.ErasureStats().Enabled }, (*Server).erasureFields},
	{"retention", func(*Server) bool { return true }, (*Server).retentionFields},
	{"replication", func(*Server) bool { return true }, (*Server).replicationFields},
	{"cluster", func(s *Server) bool { return s.clusterInfo() != nil }, (*Server).clusterFields},
	{"commandstats", func(s *Server) bool { return len(s.cmdStats.Snapshots()) > 0 }, (*Server).commandStatsFields},
}

// InfoSectionNames returns the registered section names in report order.
func InfoSectionNames() []string {
	names := make([]string, len(infoRegistry))
	for i, sec := range infoRegistry {
		names[i] = sec.name
	}
	return names
}

// InfoSnapshot renders the named section ("" = every currently applicable
// section) as structured data. Unknown names error with the same message
// the RESP INFO command reports.
func (s *Server) InfoSnapshot(section string) ([]InfoSnapshot, error) {
	if section != "" {
		for _, sec := range infoRegistry {
			if sec.name == section {
				return []InfoSnapshot{{Name: sec.name, Fields: sec.fields(s)}}, nil
			}
		}
		return nil, fmt.Errorf("unknown INFO section '%s'", section)
	}
	out := make([]InfoSnapshot, 0, len(infoRegistry))
	for _, sec := range infoRegistry {
		if sec.present(s) {
			out = append(out, InfoSnapshot{Name: sec.name, Fields: sec.fields(s)})
		}
	}
	return out, nil
}

// renderInfoText renders snapshots in Redis INFO text style.
func renderInfoText(snaps []InfoSnapshot) string {
	var b strings.Builder
	for _, snap := range snaps {
		b.WriteString("# " + snap.Name + "\r\n")
		for _, f := range snap.Fields {
			b.WriteString(f.Key + ":" + f.Value + "\r\n")
		}
	}
	return b.String()
}

// Field-building shorthands.

func fstr(k, v string) InfoField { return InfoField{Key: k, Value: v} }
func fbool(k string, v bool) InfoField {
	return InfoField{Key: k, Value: strconv.FormatBool(v)}
}
func fint(k string, v int) InfoField {
	return InfoField{Key: k, Value: strconv.Itoa(v), Num: float64(v)}
}
func fint64(k string, v int64) InfoField {
	return InfoField{Key: k, Value: strconv.FormatInt(v, 10), Num: float64(v)}
}
func fuint(k string, v uint64) InfoField {
	return InfoField{Key: k, Value: strconv.FormatUint(v, 10), Num: float64(v)}
}

// fms renders a duration in whole milliseconds; its Num is the exact
// seconds, the unit of a Prometheus family.
func fms(k string, d time.Duration) InfoField {
	return InfoField{Key: k, Value: strconv.FormatInt(d.Milliseconds(), 10), Num: d.Seconds()}
}

// gdprstoreFields renders the store-health section.
func (s *Server) gdprstoreFields() []InfoField {
	cfg := s.store.Config()
	eng := s.store.Engine()
	var (
		aofSize             int64
		aofAppends, aofSync uint64
		aofErr              string
		auditSeq, auditSync uint64
	)
	if l := s.store.Log(); l != nil {
		aofSize, aofAppends, aofSync = l.Size(), l.Appends(), l.Syncs()
		if err := l.LastErr(); err != nil {
			aofErr = err.Error()
		}
	}
	if t := s.store.Trail(); t != nil {
		auditSeq, auditSync = t.Seq(), t.Syncs()
	}
	return []InfoField{
		fbool("compliant", cfg.Compliant),
		fstr("timing", cfg.Timing.String()),
		fstr("capability", cfg.Capability.String()),
		fuint("commands", s.Commands()).counter("gdprkv_commands_total", "RESP commands served"),
		fint("dbsize", s.store.Len()).gauge("gdprkv_dbsize", "keys currently stored"),
		fint("expires", eng.ExpireLen()),
		fuint("expired_total", eng.ExpiredCount()),
		fint64("aof_size", aofSize).gauge("gdprkv_aof_bytes", "append-only file size in bytes"),
		fuint("aof_appends", aofAppends),
		fuint("aof_syncs", aofSync),
		fstr("aof_last_error", aofErr),
		fuint("audit_seq", auditSeq),
		fuint("audit_syncs", auditSync),
	}
}

// auditFields renders the audit-pipeline section (Art. 30): queue
// pressure, drop and sink-error counters, the trail file's size beside
// the gdprstore section's aof_size, and the last sink error, so operators
// can see a failing, shedding or growing trail without grepping logs.
func (s *Server) auditFields() []InfoField {
	var st audit.Stats
	t := s.store.Trail()
	if t != nil {
		st = t.Stats()
	}
	return []InfoField{
		fbool("audit_enabled", t != nil),
		fstr("audit_mode", st.Mode.String()),
		fstr("audit_backpressure", st.Policy.String()),
		fint("audit_queue_depth", st.QueueDepth).gauge("gdprkv_audit_queue_depth", "audit records waiting in the pipeline queue"),
		fint("audit_queue_cap", st.QueueCap).gauge("gdprkv_audit_queue_capacity", "audit pipeline queue capacity"),
		fuint("audit_seq", st.Seq),
		fuint("audit_enqueued", st.Enqueued).counter("gdprkv_audit_enqueued_total", "audit records accepted into the pipeline"),
		fuint("audit_processed", st.Processed).counter("gdprkv_audit_processed_total", "audit records durably written"),
		fuint("audit_dropped", st.Dropped).counter("gdprkv_audit_dropped_total", "audit records shed under backpressure"),
		fuint("audit_sink_errors", st.SinkErrors).counter("gdprkv_audit_sink_errors_total", "audit sink write failures"),
		fuint("audit_syncs", st.Syncs),
		fint64("audit_size", st.Size).gauge("gdprkv_audit_bytes", "audit trail file size in bytes"),
		fbool("audit_mask", st.MaskEnabled),
		fuint("audit_masked", st.Masked),
		fstr("audit_last_error", st.LastErr),
	}
}

// erasureFields renders the crypto-shredding/lazy-delete sweep section
// (Art. 17): how many owners are logically erased, how much dead
// ciphertext still awaits physical reclamation, and how far the sweep
// trails the shreds.
func (s *Server) erasureFields() []InfoField {
	st := s.store.ErasureStats()
	return []InfoField{
		fbool("erasure_envelope", st.Enabled),
		fint("erasure_shredded_owners", st.ShreddedOwners).gauge("gdprkv_erasure_shredded_owners", "owners whose data key is destroyed"),
		fint("erasure_pending_owners", st.PendingOwners).gauge("gdprkv_erasure_pending_owners", "shredded owners with unreclaimed ciphertext"),
		fint("erasure_pending_records", st.PendingRecords).gauge("gdprkv_erasure_pending_records", "records still attributed to pending owners"),
		fuint("erasure_reclaimed_total", st.Reclaimed).counter("gdprkv_erasure_reclaimed_total", "dead records physically deleted by sweeps"),
		fuint("erasure_sweep_cycles", st.SweepCycles).counter("gdprkv_erasure_sweep_cycles_total", "lazy-delete sweep cycles run"),
		fuint("erasure_owners_drained", st.OwnersDrained),
		fms("erasure_sweep_lag_ms", st.SweepLag).gauge("gdprkv_erasure_lag_seconds", "age of the oldest crypto-shredded owner whose ciphertext the sweep has not reclaimed"),
		fint64("erasure_last_cycle_us", st.LastCycle.Microseconds()),
		fbool("erasure_sweeper_running", st.SweeperRunning),
		fuint("keyring_cipher_hits", st.CipherHits).counter("gdprkv_keyring_cipher_hits_total", "prepared-cipher lookups served from the keyring's cache"),
		fuint("keyring_cipher_misses", st.CipherMisses).counter("gdprkv_keyring_cipher_misses_total", "prepared-cipher lookups that built a cipher"),
	}
}

// retentionFields renders the retention-enforcement section — the
// compliance analogue of replication lag (§3.1: "data cannot be stored
// indefinitely"): how many records are past their storage-limitation
// deadline but still physically present, and how old the oldest overdue
// deadline is.
func (s *Server) retentionFields() []InfoField {
	st := s.store.RetentionStats()
	return []InfoField{
		fint("retention_tracked_deadlines", st.TrackedDeadlines).gauge("gdprkv_retention_tracked_deadlines", "keys carrying a retention deadline"),
		fint("retention_overdue_records", st.OverdueRecords).gauge("gdprkv_retention_overdue_records", "records past their retention deadline awaiting reclamation"),
		fms("retention_lag_ms", st.Lag).gauge("gdprkv_retention_lag_seconds", "age of the oldest record past its retention deadline but not yet reclaimed"),
		fuint("retention_expired_total", st.ExpiredTotal).counter("gdprkv_retention_expired_total", "keys reclaimed by retention enforcement"),
		fbool("retention_expirer_running", st.ExpirerRunning),
	}
}

// The three replication families, shared by a replica's section and a
// primary's.

func replRole(role string) InfoField {
	f := fstr("role", role).gauge("gdprkv_replication_role", "0 when primary, 1 when replica")
	if role == "replica" {
		f.Num = 1
	}
	return f
}

func replOffset(k string, offset int64) InfoField {
	return fint64(k, offset).gauge("gdprkv_replication_offset_bytes", "replication journal offset")
}

func connectedReplicas(n int) InfoField {
	return fint("connected_replicas", n).gauge("gdprkv_connected_replicas", "replicas attached to this primary")
}

// replicationFields renders the replication topology as seen from this
// node: replica-side link state, or primary-side connected replicas and
// their acknowledged offsets.
func (s *Server) replicationFields() []InfoField {
	s.replMu.Lock()
	node := s.replNode
	s.replMu.Unlock()
	if node != nil {
		st := node.Status()
		host, port, _ := net.SplitHostPort(st.PrimaryAddr)
		return []InfoField{
			replRole("replica"),
			fstr("master_host", host),
			fstr("master_port", port),
			fstr("master_link_status", st.Link.String()),
			fstr("master_replid", st.ReplID),
			replOffset("replica_repl_offset", st.Offset),
			fuint("replica_applied", st.Applied),
			fuint("full_syncs", st.FullSyncs),
			fuint("reconnects", st.Reconnects),
			connectedReplicas(0),
		}
	}
	hub := s.store.Hub()
	if hub == nil {
		return []InfoField{
			replRole("master"),
			connectedReplicas(0),
			replOffset("master_repl_offset", 0),
		}
	}
	links := hub.Links()
	offset := hub.Offset()
	fs := []InfoField{
		replRole("master"),
		fstr("master_replid", hub.ID()),
		replOffset("master_repl_offset", offset),
		connectedReplicas(len(links)),
	}
	for i, l := range links {
		fs = append(fs, fstr(fmt.Sprintf("replica%d", i),
			fmt.Sprintf("addr=%s,ack_offset=%d,lag=%d", l.Addr, l.AckOffset, offset-l.AckOffset)))
	}
	return fs
}

// clusterFields renders the cluster topology section.
func (s *Server) clusterFields() []InfoField {
	cs := s.clusterInfo()
	if cs == nil {
		return []InfoField{fstr("cluster_enabled", "0")}
	}
	nodes := cs.m.Nodes()
	migrating, importing := 0, 0
	for _, mg := range cs.topo.Migrations() {
		switch mg.State {
		case cluster.StateMigrating:
			migrating++
		case cluster.StateImporting:
			importing++
		}
	}
	fs := []InfoField{
		fstr("cluster_enabled", "1"),
		fstr("cluster_state", "ok"),
		fint("cluster_slots", cluster.NumSlots),
		fint("cluster_known_nodes", len(nodes)),
		fstr("cluster_self", cs.selfID),
		fint64("cluster_epoch", int64(cs.topo.Epoch())),
		fint("cluster_migrating_slots", migrating),
		fint("cluster_importing_slots", importing),
	}
	for _, n := range nodes {
		rs := make([]string, len(n.Ranges))
		for i, r := range n.Ranges {
			rs[i] = r.String()
		}
		slots := strings.Join(rs, ",")
		if slots == "" {
			slots = "none"
		}
		line := fmt.Sprintf("addr=%s,slots=%s", n.Addr, slots)
		if len(n.Replicas) > 0 {
			line += ",replicas=" + strings.Join(n.Replicas, "+")
		}
		fs = append(fs, fstr("cluster_node_"+n.ID, line))
	}
	return fs
}

// commandStatsFields renders the per-command metrics the middleware
// pipeline records (empty when no commands have run).
func (s *Server) commandStatsFields() []InfoField {
	snaps := s.cmdStats.Snapshots()
	names := make([]string, 0, len(snaps))
	for n := range snaps {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := make([]InfoField, 0, len(names))
	for _, name := range names {
		snap := snaps[name]
		fs = append(fs, fstr("cmdstat_"+strings.ToLower(name),
			fmt.Sprintf("calls=%d,usec=%d,usec_per_call=%.2f,p99_usec=%d",
				snap.Count,
				int64(snap.Mean)*int64(snap.Count)/1000,
				float64(snap.Mean)/float64(time.Microsecond),
				snap.P99.Microseconds())))
	}
	return fs
}
