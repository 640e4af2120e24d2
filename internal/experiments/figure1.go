// Package experiments contains the reproduction harness: one function per
// table, figure and scenario of the paper — Figure 1's YCSB bars, §4.1's
// fsync spectrum, Figure 2, the GDPRbench-style personas and scenarios —
// all run by cmd/experiments. Every per-operation latency comes from one
// timed loop (loop.go) driving one of two targets: an embedded core.Store
// or a server through the pkg/gdprkv SDK. Each function returns structured
// rows so callers can print paper-shaped output or assert on shapes in
// tests.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"gdprstore/internal/aof"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
	"gdprstore/internal/tlsproxy"
	"gdprstore/pkg/gdprkv"
)

// Figure1Config selects Figure 1's benchmark scale. The paper uses 2M
// operations on a Xeon testbed; defaults here are sized for CI but the
// cmd/experiments binary exposes flags to run paper scale.
type Figure1Config struct {
	// RecordCount is the loaded dataset size (YCSB recordcount).
	RecordCount int64
	// OperationCount per workload run phase.
	OperationCount int64
	// Workers is the client parallelism.
	Workers int
	// ValueSize is bytes per record.
	ValueSize int
	// Dir holds AOF files; empty uses a temporary directory removed after
	// the run.
	Dir string
	// PoolSize > 0 shares one pooled pkg/gdprkv client of that many
	// connections across all workers instead of the classic one
	// connection per worker.
	PoolSize int
}

func (c *Figure1Config) defaults() {
	c.RecordCount = cmp.Or(c.RecordCount, 2000)
	c.OperationCount = cmp.Or(c.OperationCount, 10000)
	c.Workers = cmp.Or(c.Workers, 4)
	c.ValueSize = cmp.Or(c.ValueSize, 1000)
}

// Figure1Setups are the three bar groups of Figure 1.
var Figure1Setups = []string{"Unmodified", "AOF w/ sync", "LUKS + TLS"}

// Figure1Row is one x-axis position of Figure 1: a workload phase with the
// throughput of each setup.
type Figure1Row struct {
	// Workload is the x label: Load-A, A, B, C, D, Load-E, E, F.
	Workload string
	// Throughput maps setup name → op/s.
	Throughput map[string]float64
}

// Figure1Workloads is the x axis of Figure 1, in paper order.
var Figure1Workloads = []string{"Load-A", "A", "B", "C", "D", "Load-E", "E", "F"}

// Figure1 reproduces Figure 1: YCSB throughput across workloads for the
// unmodified store, the store with synchronous read-inclusive AOF logging
// (§4.1), and the store behind LUKS-style at-rest encryption plus a
// stunnel-style TLS tunnel (§4.2). All three setups are exercised over the
// network path, as the paper's deployment was.
func Figure1(cfg Figure1Config) ([]Figure1Row, error) {
	cfg.defaults()
	dir, cleanup, err := WorkDir(cfg.Dir, "gdpr-fig1")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cfg.Dir = dir
	rows := make([]Figure1Row, len(Figure1Workloads))
	for i, w := range Figure1Workloads {
		rows[i] = Figure1Row{Workload: w, Throughput: make(map[string]float64)}
	}

	for _, setup := range Figure1Setups {
		if err := figure1Setup(setup, cfg, rows); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// figure1Setup stands one setup up — a store, its server and, behind LUKS
// + TLS, the tunnel clients dial instead — and runs Figure 1's x axis
// against it.
func figure1Setup(setup string, cfg Figure1Config, rows []Figure1Row) error {
	storeCfg := core.Baseline()
	switch setup {
	case "AOF w/ sync":
		// The paper's §4.1 retrofit: AOF extended to record reads, fsynced
		// on every operation. No other GDPR machinery is enabled, isolating
		// the monitoring cost.
		storeCfg.AOFPath = filepath.Join(cfg.Dir, "aof-sync.aof")
		storeCfg.AOFSync = core.Ptr(aof.SyncAlways)
		storeCfg.JournalReads = true
	case "LUKS + TLS":
		// §4.2: unmodified store whose persistence passes through the
		// block cipher (LUKS stand-in) and whose traffic passes through the
		// TLS tunnel pair (stunnel stand-in).
		storeCfg.AOFPath = filepath.Join(cfg.Dir, "aof-luks.aof")
		storeCfg.AOFSync = core.Ptr(aof.SyncEverySec)
		key := make([]byte, 32)
		for i := range key {
			key[i] = byte(i * 7)
		}
		storeCfg.AtRestKey = key
	}
	st, err := core.Open(storeCfg)
	if err != nil {
		return err
	}
	defer st.Close()
	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		return err
	}
	defer srv.Close()
	addr := srv.Addr()
	if setup == "LUKS + TLS" {
		tun, err := tlsproxy.NewTunnel(addr, tlsproxy.Throttle{})
		if err != nil {
			return err
		}
		defer tun.Close()
		addr = tun.Addr()
	}

	var shared *gdprkv.Client
	if cfg.PoolSize > 0 {
		shared, err = gdprkv.Dial(context.Background(), addr, gdprkv.WithPoolSize(cfg.PoolSize))
		if err != nil {
			return err
		}
		defer shared.Close()
	}
	phase := YCSBConfig{RecordCount: cfg.RecordCount, OperationCount: cfg.OperationCount,
		ValueSize: cfg.ValueSize, Workers: cfg.Workers, Target: SDKTarget(addr, shared)}

	// Figure 1's sequence, its x axis, mirrors the YCSB core recipe:
	// Load-A, then run A, B, C, D on that dataset; reload for E (Load-E),
	// run E, then F. Each load starts from an empty engine: the paper
	// reports Load-E separately because D's inserts perturb the dataset.
	for i, label := range Figure1Workloads {
		phase.Workload = CoreWorkloads[strings.TrimPrefix(label, "Load-")]
		run := Run
		if label != phase.Workload.Name {
			run = Load
			st.Engine().FlushAll()
		}
		res, err := run(phase)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		rows[i].Throughput[setup] = res.Throughput
	}
	return nil
}

// FormatFigure1 renders rows as the paper's bar-chart data in text form.
func FormatFigure1(rows []Figure1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "Workload")
	for _, s := range Figure1Setups {
		fmt.Fprintf(&b, " %14s", s)
	}
	fmt.Fprintf(&b, " %18s %18s\n", "AOF-sync/unmod", "LUKS+TLS/unmod")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Workload)
		for _, s := range Figure1Setups {
			fmt.Fprintf(&b, " %11.0f op/s", r.Throughput[s])
		}
		base := r.Throughput["Unmodified"]
		if base > 0 {
			fmt.Fprintf(&b, " %17.1f%% %17.1f%%",
				100*r.Throughput["AOF w/ sync"]/base,
				100*r.Throughput["LUKS + TLS"]/base)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
