package server

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"gdprstore/internal/cluster"
)

// This file is the shared INFO section registry: every section (name,
// applicability, ordered key/value fields) is declared exactly once, and
// both renderings — the RESP `INFO` text reply and the ops server's
// `GET /info` JSON — are generated from it. Adding a section here is the
// whole job: the INFO summary line, the `INFO <section>` argument
// validation, the full-INFO composition and the HTTP surface all follow,
// so the two protocols cannot drift (ops asserts parity in its tests).

// InfoField is one key:value line of an INFO section.
type InfoField struct {
	Key   string
	Value string
}

// InfoSnapshot is one rendered section: its name and its fields in
// report order.
type InfoSnapshot struct {
	Name   string
	Fields []InfoField
}

// infoSection declares one section of the registry. present gates
// inclusion in the argument-less full INFO report; an explicitly
// requested section always renders (typically to a one-line "disabled"
// stub), matching Redis's behaviour for inapplicable sections.
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
	return InfoField{Key: k, Value: strconv.Itoa(v)}
}
func fint64(k string, v int64) InfoField {
	return InfoField{Key: k, Value: strconv.FormatInt(v, 10)}
}
func fuint(k string, v uint64) InfoField {
	return InfoField{Key: k, Value: strconv.FormatUint(v, 10)}
}

// gdprstoreFields renders the store-health section.
func (s *Server) gdprstoreFields() []InfoField {
	cfg := s.store.Config()
	fs := []InfoField{
		fbool("compliant", cfg.Compliant),
		fstr("timing", cfg.Timing.String()),
		fstr("capability", cfg.Capability.String()),
		fuint("commands", s.Commands()),
		fint("dbsize", s.store.Engine().Len()),
		fint("expires", s.store.Engine().ExpireLen()),
		fuint("expired_total", s.store.Engine().ExpiredCount()),
	}
	if l := s.store.Log(); l != nil {
		lastErr := ""
		if err := l.LastErr(); err != nil {
			lastErr = err.Error()
		}
		fs = append(fs,
			fint64("aof_size", l.Size()),
			fuint("aof_appends", l.Appends()),
			fuint("aof_syncs", l.Syncs()),
			fstr("aof_last_error", lastErr),
		)
	}
	if t := s.store.Trail(); t != nil {
		fs = append(fs,
			fuint("audit_seq", t.Seq()),
			fuint("audit_syncs", t.Syncs()),
		)
	}
	return fs
}

// auditFields renders the audit-pipeline section: queue pressure, drop
// and sink-error counters, the trail file's size beside the gdprstore
// section's aof_size, and the last sink error, so operators can see a
// failing, shedding or growing trail without grepping logs.
func (s *Server) auditFields() []InfoField {
	t := s.store.Trail()
	if t == nil {
		return []InfoField{fbool("audit_enabled", false)}
	}
	st := t.Stats()
	return []InfoField{
		fbool("audit_enabled", true),
		fstr("audit_mode", st.Mode.String()),
		fstr("audit_backpressure", st.Policy.String()),
		fint("audit_queue_depth", st.QueueDepth),
		fint("audit_queue_cap", st.QueueCap),
		fuint("audit_seq", st.Seq),
		fuint("audit_enqueued", st.Enqueued),
		fuint("audit_processed", st.Processed),
		fuint("audit_dropped", st.Dropped),
		fuint("audit_sink_errors", st.SinkErrors),
		fuint("audit_syncs", st.Syncs),
		fint64("audit_size", st.Size),
		fbool("audit_mask", st.MaskEnabled),
		fuint("audit_masked", st.Masked),
		fstr("audit_last_error", st.LastErr),
	}
}

// erasureFields renders the crypto-shredding/lazy-delete sweep section:
// how many owners are logically erased, how much dead ciphertext still
// awaits physical reclamation, and how far the sweep trails the shreds.
func (s *Server) erasureFields() []InfoField {
	st := s.store.ErasureStats()
	if !st.Enabled {
		return []InfoField{fbool("erasure_envelope", false)}
	}
	return []InfoField{
		fbool("erasure_envelope", true),
		fint("erasure_shredded_owners", st.ShreddedOwners),
		fint("erasure_pending_owners", st.PendingOwners),
		fint("erasure_pending_records", st.PendingRecords),
		fuint("erasure_reclaimed_total", st.Reclaimed),
		fuint("erasure_sweep_cycles", st.SweepCycles),
		fuint("erasure_owners_drained", st.OwnersDrained),
		fint64("erasure_sweep_lag_ms", st.SweepLag.Milliseconds()),
		fint64("erasure_last_cycle_us", st.LastCycle.Microseconds()),
		fbool("erasure_sweeper_running", st.SweeperRunning),
		fuint("keyring_cipher_hits", st.CipherHits),
		fuint("keyring_cipher_misses", st.CipherMisses),
	}
}

// retentionFields renders the retention-enforcement section — the
// compliance analogue of replication lag: how many records are past
// their storage-limitation deadline but still physically present, and
// how old the oldest overdue deadline is.
func (s *Server) retentionFields() []InfoField {
	st := s.store.RetentionStats()
	return []InfoField{
		fint("retention_tracked_deadlines", st.TrackedDeadlines),
		fint("retention_overdue_records", st.OverdueRecords),
		fint64("retention_lag_ms", st.Lag.Milliseconds()),
		fuint("retention_expired_total", st.ExpiredTotal),
		fbool("retention_expirer_running", st.ExpirerRunning),
	}
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
			fstr("role", "replica"),
			fstr("master_host", host),
			fstr("master_port", port),
			fstr("master_link_status", st.Link.String()),
			fstr("master_replid", st.ReplID),
			fint64("replica_repl_offset", st.Offset),
			fuint("replica_applied", st.Applied),
			fuint("full_syncs", st.FullSyncs),
			fuint("reconnects", st.Reconnects),
		}
	}
	hub := s.store.Hub()
	if hub == nil {
		return []InfoField{
			fstr("role", "master"),
			fint("connected_replicas", 0),
			fint64("master_repl_offset", 0),
		}
	}
	links := hub.Links()
	offset := hub.Offset()
	fs := []InfoField{
		fstr("role", "master"),
		fstr("master_replid", hub.ID()),
		fint64("master_repl_offset", offset),
		fint("connected_replicas", len(links)),
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
