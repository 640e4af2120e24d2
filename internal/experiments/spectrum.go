package experiments

import (
	"cmp"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/core"
)

// FsyncRow is one point of the §4.1 fsync spectrum: how throughput changes
// with the durability of monitoring.
type FsyncRow struct {
	// Mode is the logging configuration.
	Mode string
	// Throughput is YCSB-A op/s.
	Throughput float64
	// RelativeToOff is Throughput / no-logging Throughput.
	RelativeToOff float64
}

// FsyncSpectrum reproduces §4.1's finding: synchronous per-op logging
// drops throughput to ~5% of baseline, while batching the log once per
// second recovers 6× (to ~30%). It runs YCSB workload A embedded (the
// logging cost, not the network, is under test) against three AOF modes:
// no logging, fsync every second, fsync always — all with reads journaled.
func FsyncSpectrum(dir string, recordCount, opCount int64, workers int) ([]FsyncRow, error) {
	dir, cleanup, err := WorkDir(dir, "gdpr-fsync")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	recordCount = cmp.Or(recordCount, 2000)
	opCount = cmp.Or(opCount, 10000)
	workers = cmp.Or(workers, 4)

	modes := []struct {
		name, aof string
		sync      aof.SyncPolicy
	}{
		{"no logging", "", 0},
		{"AOF everysec (eventual)", "everysec.aof", aof.SyncEverySec},
		{"AOF sync-every-op (real-time)", "always.aof", aof.SyncAlways},
	}
	rows := make([]FsyncRow, 0, len(modes))
	for _, m := range modes {
		cfg := core.Baseline()
		if m.aof != "" {
			cfg.AOFPath, cfg.AOFSync, cfg.JournalReads = filepath.Join(dir, m.aof), core.Ptr(m.sync), true
		}
		thr, err := ycsbA(cfg, false, recordCount, opCount, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FsyncRow{Mode: m.name, Throughput: thr})
	}
	base := rows[0].Throughput
	for i := range rows {
		rows[i].RelativeToOff = rows[i].Throughput / base
	}
	return rows, nil
}

// FormatFsync renders the fsync spectrum table.
func FormatFsync(rows []FsyncRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %14s %10s\n", "Logging mode", "Throughput", "vs off")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %9.0f op/s %9.1f%%\n", r.Mode, r.Throughput, 100*r.RelativeToOff)
	}
	if len(rows) == 3 && rows[2].Throughput > 0 {
		fmt.Fprintf(&b, "everysec / always speedup: %.1fx (paper: ~6x)\n",
			rows[1].Throughput/rows[2].Throughput)
	}
	return b.String()
}

// SpectrumRow is one corner of the §3.2 compliance spectrum.
type SpectrumRow struct {
	Timing     string
	Capability string
	Throughput float64
	// RelativeToBaseline compares against the non-compliant store.
	RelativeToBaseline float64
}

// ComplianceSpectrum measures YCSB-A throughput across the four corners of
// the compliance spectrum (real-time/eventual × full/partial), plus the
// non-compliant baseline, with auditing to disk in every compliant corner.
// It demonstrates §3.2's claim that compliance is a continuum with strict
// compliance the most expensive corner.
func ComplianceSpectrum(dir string, recordCount, opCount int64, workers int) ([]SpectrumRow, error) {
	dir, cleanup, err := WorkDir(dir, "gdpr-spectrum")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	recordCount = cmp.Or(recordCount, 1000)
	opCount = cmp.Or(opCount, 5000)
	workers = cmp.Or(workers, 4)

	// Baseline first: the same YCSB-A run on the baseline path.
	baseThr, err := ycsbA(core.Baseline(), false, recordCount, opCount, workers)
	if err != nil {
		return nil, err
	}
	rows := []SpectrumRow{{Timing: "none", Capability: "baseline", Throughput: baseThr}}

	for _, timing := range []core.Timing{core.TimingEventual, core.TimingRealTime} {
		for _, capability := range []core.Capability{core.CapabilityPartial, core.CapabilityFull} {
			thr, err := ycsbA(core.Config{
				Compliant: true, Timing: timing, Capability: capability, DefaultTTL: 24 * time.Hour,
				AuditEnabled: true, AuditPath: filepath.Join(dir, fmt.Sprintf("audit-%s-%s.log", timing, capability)),
			}, true, recordCount, opCount, workers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SpectrumRow{Timing: timing.String(), Capability: capability.String(), Throughput: thr})
		}
	}
	for i := range rows {
		rows[i].RelativeToBaseline = rows[i].Throughput / baseThr
	}
	return rows, nil
}

// ycsbA loads and runs YCSB workload A against a fresh embedded store
// opened with cfg, on its baseline or compliant path, and returns the run
// phase's throughput. Any failed operation fails the run.
func ycsbA(cfg core.Config, compliant bool, recordCount, opCount int64, workers int) (float64, error) {
	st, err := core.Open(cfg)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	phase := YCSBConfig{Workload: WorkloadA, RecordCount: recordCount, OperationCount: opCount,
		Workers: workers, Target: EmbeddedTarget(st, core.Ctx{}, core.PutOptions{})}
	if compliant {
		phase.Target = CompliantTarget(st)
	}
	res, err := Load(phase)
	if err == nil && res.Errors == 0 {
		res, err = Run(phase)
	}
	if err == nil && res.Errors > 0 {
		err = fmt.Errorf("experiments: YCSB-A %s on %s/%s: %d errors, first: %w",
			res.Name, cfg.Timing, cfg.Capability, res.Errors, res.Err)
	}
	return res.Throughput, err
}

// FormatSpectrum renders the compliance-spectrum table.
func FormatSpectrum(rows []SpectrumRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %14s %10s\n", "Timing", "Capability", "Throughput", "vs base")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10s %9.0f op/s %9.1f%%\n",
			r.Timing, r.Capability, r.Throughput, 100*r.RelativeToBaseline)
	}
	return b.String()
}
