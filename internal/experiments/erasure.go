package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/backup"
	"gdprstore/internal/core"
	"gdprstore/internal/metrics"
)

// ErasureRow is one configuration's Article 17 cost profile.
type ErasureRow struct {
	// Timing is the compliance timing mode.
	Timing string
	// WithBackups marks whether a backup manager was attached.
	WithBackups bool
	// ForgetLatency summarises the latency of the Forget call itself.
	ForgetLatency metrics.Snapshot
	// MaintainLatency is the deferred-work cost (eventual mode pays the
	// AOF compaction and backup refresh here instead).
	MaintainLatency time.Duration
}

// ErasureLatency quantifies what §4.3 and §3.2 together imply but the
// paper does not measure: the latency cost of the right to be forgotten
// under real-time vs eventual timing, with and without backups attached.
// Real-time Forget pays AOF compaction and backup refresh synchronously;
// eventual Forget returns after the index/engine erasure and defers the
// rest to Maintain. Networked replicas are left out: they apply an erasure
// from the replication stream on every timing, so Forget never waits on
// them.
func ErasureLatency(dir string, subjects, recordsPerSubject int) ([]ErasureRow, error) {
	if subjects <= 0 {
		subjects = 50
	}
	if recordsPerSubject <= 0 {
		recordsPerSubject = 10
	}
	var rows []ErasureRow
	for _, timing := range []core.Timing{core.TimingEventual, core.TimingRealTime} {
		for _, backups := range []bool{false, true} {
			row, err := erasurePoint(dir, timing, backups, subjects, recordsPerSubject)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func erasurePoint(dir string, timing core.Timing, backups bool, subjects, records int) (ErasureRow, error) {
	sub := fmt.Sprintf("erasure-%s-%v", timing, backups)
	cfg := core.Config{
		Compliant:    true,
		Timing:       timing,
		Capability:   core.CapabilityFull,
		AuditEnabled: true,
		AOFPath:      filepath.Join(dir, sub+".aof"),
		DefaultTTL:   24 * time.Hour,
	}
	st, err := core.Open(cfg)
	if err != nil {
		return ErasureRow{}, err
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "ctl", Role: acl.RoleController})
	ctx := core.Ctx{Actor: "ctl", Purpose: "account"}

	if backups {
		m, err := backup.NewManager(filepath.Join(dir, sub+"-backups"), nil, nil)
		if err != nil {
			return ErasureRow{}, err
		}
		st.SetBackupManager(m)
	}

	val := make([]byte, 256)
	for i := 0; i < subjects; i++ {
		owner := fmt.Sprintf("subj%04d", i)
		st.ACL().AddPrincipal(acl.Principal{ID: owner, Role: acl.RoleSubject})
		for j := 0; j < records; j++ {
			key := fmt.Sprintf("pd:%s:%03d", owner, j)
			if err := st.Put(ctx, key, val, core.PutOptions{Owner: owner, Purposes: []string{"account"}}); err != nil {
				return ErasureRow{}, err
			}
		}
	}
	if backups {
		if _, err := st.Backup(); err != nil {
			return ErasureRow{}, err
		}
	}

	hist := metrics.NewHistogram()
	for i := 0; i < subjects; i++ {
		owner := fmt.Sprintf("subj%04d", i)
		t0 := time.Now()
		n, err := st.Forget(core.Ctx{Actor: owner}, owner)
		if err != nil {
			return ErasureRow{}, fmt.Errorf("forget %s: %w", owner, err)
		}
		if n != records {
			return ErasureRow{}, fmt.Errorf("forget %s erased %d, want %d", owner, n, records)
		}
		hist.Record(time.Since(t0))
	}

	t0 := time.Now()
	st.Maintain()
	maint := time.Since(t0)

	return ErasureRow{
		Timing:          timing.String(),
		WithBackups:     backups,
		ForgetLatency:   hist.Snapshot(),
		MaintainLatency: maint,
	}, nil
}

// FormatErasure renders the erasure-latency table.
func FormatErasure(rows []ErasureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s %12s %12s %12s %14s\n",
		"Timing", "Backups", "Forget p50", "Forget p99", "Forget max", "Maintain")
	for _, r := range rows {
		backups := "no"
		if r.WithBackups {
			backups = "yes"
		}
		fmt.Fprintf(&b, "%-10s %-7s %12v %12v %12v %14v\n",
			r.Timing, backups,
			r.ForgetLatency.P50.Round(time.Microsecond),
			r.ForgetLatency.P99.Round(time.Microsecond),
			r.ForgetLatency.Max.Round(time.Microsecond),
			r.MaintainLatency.Round(time.Microsecond))
	}
	b.WriteString("real-time pays compaction + backup refresh inside Forget;\n")
	b.WriteString("eventual defers that work to Maintain, keeping Forget latency flat.\n")
	return b.String()
}
