// Command experiments regenerates every table, figure and scenario of the
// paper: the reproduction experiments, the YCSB core workloads and the
// GDPRbench-style personas and scenarios, each against an embedded store
// or, where it says so, a live server through pkg/gdprkv.
//
// Usage:
//
//	experiments -run all                                # the paper's tables and figures
//	experiments -run fig1 -records 100000 -ops 2000000  # Figure 1 at paper scale
//	experiments -run ycsb -workload A -mode gdpr -timing realtime
//	experiments -run ycsb -workload C -addr 127.0.0.1:7001 -pool 8 -cluster 127.0.0.1:7002,127.0.0.1:7003
//	experiments -run personas -addr 127.0.0.1:6380 -role customer
//	experiments -run retention-storm
//
// YCSB over the wire needs baseline servers; the personas, a server run with
// -controller controller.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/experiments"
	"gdprstore/pkg/gdprkv"
)

var (
	run     = flag.String("run", "all", "table1|fig1|fig2|fsync|spectrum|tls|fastexpiry|erasure|all (the paper's tables and figures), or ycsb|personas|retention-storm|multi-regulation|breach-replay")
	records = flag.Int64("records", 0, "record count: ycsb (default 100000), fig1/fsync/spectrum (default 5000); records per subject: personas, multi-regulation (default 10)")
	ops     = flag.Int64("ops", 0, "operation count: ycsb run phase (default 1000000), fig1/fsync/spectrum (default 20000), personas per role (default 10000)")
	workers = flag.Int("workers", 8, "client parallelism")
	pool    = flag.Int("pool", 0, "fig1, ycsb over the network: share one pooled pkg/gdprkv client of N connections across workers (0 = one connection per worker)")
	dir     = flag.String("dir", "", "working directory for AOF/audit files (default: a temporary directory removed after the run)")
	seed    = flag.Int64("seed", 1, "deterministic seed")

	// Store and server selection, shared by ycsb and personas.
	mode      = flag.String("mode", "embedded", `ycsb: "embedded", "gdpr", or "network" (needs -addr or -cluster of baseline servers: a compliant one refuses YCSB's raw commands)`)
	addr      = flag.String("addr", "", "ycsb, personas: run against the server at this address via pkg/gdprkv")
	clusterF  = flag.String("cluster", "", "ycsb, personas: comma-separated primary addresses; with -addr they form a hash-slot cluster")
	timing    = flag.String("timing", "", "embedded compliant store: eventual|realtime (default: eventual for ycsb, realtime for personas)")
	shards    = flag.Int("shards", 0, "embedded store: engine lock-stripe count, power of two (0 = default; 1 = single mutex)")
	aofPath   = flag.String("aof", "", "embedded store: AOF path")
	aofSync   = flag.String("aof-sync", "", "embedded store: no|everysec|always")
	auditPath = flag.String("audit", "", "embedded compliant store: audit trail path")
	auditBP   = flag.String("audit-backpressure", "", `embedded compliant store: "block" (default) or "drop" when the audit queue is full`)
	auditMask = flag.Bool("audit-mask", false, "embedded compliant store: pseudonymize PII in audit records")
	batch     = flag.Int("batch", 1, "ycsb, personas: group data-path operations into batches of N keys (the batch command family on both targets)")
	autoBatch = flag.Int("auto-batch", 0, "over the network: dial clients with WithAutoBatch coalescing, maxOps N and the default window (ycsb requires -pool)")
	opsAddr   = flag.String("ops-addr", "", "personas and scenarios: sample a live server's ops surface (host:port of its -ops-addr) mid-run and report observed compliance-lag maxima")

	// ycsb.
	workload  = flag.String("workload", "A", "ycsb: core workload letter A-F")
	valueSize = flag.Int("valuesize", 1000, "ycsb: record payload bytes")
	loadOnly  = flag.Bool("load-only", false, "ycsb: run only the load phase")
	skipLoad  = flag.Bool("skip-load", false, "ycsb: skip the load phase")

	// personas and scenarios.
	subjects     = flag.Int("subjects", 200, "personas, multi-regulation, breach-replay: number of data subjects")
	roleStr      = flag.String("role", "all", "personas: customer|controller|processor|regulator|all")
	eraseKeys    = flag.String("erasure-keys", "16,256,4096", "erasure: comma-separated keys-per-owner points")
	eraseOwners  = flag.Int("erasure-owners", 8, "erasure: owners erased per keys-per-owner point")
	stormKeys    = flag.Int("storm-keys", 20000, "retention-storm: records expiring simultaneously")
	stormHorizon = flag.Duration("storm-horizon", time.Second, "retention-storm: lead time before the shared expiry deadline")
	mrOps        = flag.Int("multireg-ops", 20000, "multi-regulation: reads per policy regime")
	mrOptOut     = flag.Float64("multireg-optout", 0.30, "multi-regulation: fraction of subjects filing the CCPA do-not-sell opt-out")
	brRecords    = flag.Int("breach-records", 2_000_000, "breach-replay: synthetic audit-trail size")
	brWriters    = flag.Int("breach-writers", 1, "breach-replay: live controller write loops during the replay")
	brUnmasked   = flag.Bool("breach-unmasked", false, "breach-replay: replay an unmasked trail instead of the pseudonymized default")
)

// paper is what -run all runs, in order.
var paper = []string{"table1", "fig2", "fastexpiry", "fsync", "fig1", "spectrum", "erasure", "tls"}

var runs = map[string]func(){
	"table1": func() {
		section("Table 1 — GDPR articles vs storage features")
		fmt.Print(core.FormatTable1())
	},
	"fig2": func() {
		show("Figure 2 — erasure delay of expired keys (20% of total)", experiments.FormatFigure2)(
			experiments.Figure2(experiments.Figure2Config{}))
	},
	"fastexpiry": func() {
		section("§4.3 — fast active expiry up to 1M keys (paper: sub-second)")
		out, err := experiments.FastExpirySweep(nil, 1)
		check(err)
		for _, n := range []int{100_000, 250_000, 500_000, 1_000_000} {
			fmt.Printf("%9d keys: erased in %v\n", n, out[n].Round(time.Microsecond))
		}
	},
	"fsync": func() {
		show("§4.1 — logging durability spectrum (YCSB-A, embedded)", experiments.FormatFsync)(
			experiments.FsyncSpectrum(*dir, cmp.Or(*records, 5000), cmp.Or(*ops, 20000), *workers))
	},
	"fig1": func() {
		show("Figure 1 — YCSB throughput: Unmodified vs AOF-w/-sync vs LUKS+TLS", experiments.FormatFigure1)(
			experiments.Figure1(experiments.Figure1Config{RecordCount: cmp.Or(*records, 5000),
				OperationCount: cmp.Or(*ops, 20000), Workers: *workers, Dir: *dir, PoolSize: *pool}))
	},
	"spectrum": func() {
		show("§3.2 — compliance spectrum ablation (YCSB-A)", experiments.FormatSpectrum)(
			experiments.ComplianceSpectrum(*dir, cmp.Or(*records, 5000), cmp.Or(*ops, 20000), *workers))
	},
	"erasure": func() {
		show("Art. 17 — erasure latency across the compliance spectrum", experiments.FormatErasure)(
			experiments.ErasureLatency(*dir, 50, 10))
		var points []int
		for _, f := range splitList(*eraseKeys) {
			var k int
			if _, err := fmt.Sscanf(f, "%d", &k); err != nil || k <= 0 {
				log.Fatalf("bad -erasure-keys entry %q", f)
			}
			points = append(points, k)
		}
		rows, err := experiments.ErasureByOwnerSize(points, *eraseOwners)
		check(err)
		fmt.Println("\n" + experiments.FormatErasureByOwnerSize(rows))
	},
	"tls": func() {
		show("§4.2 — TLS tunnel bandwidth collapse", experiments.FormatTLSBandwidth)(experiments.TLSBandwidth(0))
	},
	"ycsb":     runYCSB,
	"personas": runPersonas,
	"retention-storm": func() {
		scenario(func() (experiments.StormResult, error) {
			return experiments.RunStorm(experiments.StormConfig{Keys: *stormKeys, Horizon: *stormHorizon, Seed: *seed})
		}, experiments.FormatStorm)
	},
	"multi-regulation": func() {
		scenario(func() ([]experiments.MultiRegPoint, error) {
			return experiments.RunMultiReg(experiments.MultiRegConfig{Subjects: *subjects,
				RecordsPerSubject: int(cmp.Or(*records, 10)), Operations: *mrOps, CCPAOptOutPct: *mrOptOut, Seed: *seed})
		}, experiments.FormatMultiReg)
	},
	"breach-replay": func() {
		scenario(func() (experiments.BreachResult, error) {
			return experiments.RunBreach(experiments.BreachConfig{Records: *brRecords, Subjects: *subjects,
				Writers: *brWriters, Unmasked: *brUnmasked, Seed: *seed})
		}, experiments.FormatBreach)
	},
}

func main() {
	flag.Parse()
	if *run == "all" {
		for _, name := range paper {
			runs[name]()
		}
		return
	}
	fn, ok := runs[*run]
	if !ok {
		log.Fatalf("unknown -run %q", *run)
	}
	fn()
}

// runYCSB drives one YCSB core workload, load then run phase, against an
// embedded store (-mode embedded|gdpr) or a server (-addr/-cluster).
func runYCSB() {
	w, ok := experiments.CoreWorkloads[*workload]
	if !ok {
		log.Fatalf("unknown workload %q", *workload)
	}
	cfg := experiments.YCSBConfig{
		Workload: w, RecordCount: cmp.Or(*records, 100000), OperationCount: cmp.Or(*ops, 1000000),
		ValueSize: *valueSize, Workers: *workers, Seed: *seed, Batch: *batch,
	}
	var cleanup func()
	nodes := splitList(*addr + "," + *clusterF)
	switch {
	case *mode == "network" || len(nodes) > 0:
		cfg.Target, cleanup = ycsbClient(nodes)
	case *mode == "embedded" || *mode == "gdpr":
		var st *core.Store
		st, cleanup = openStore(*mode == "gdpr", false)
		cfg.Target = experiments.EmbeddedTarget(st, core.Ctx{}, core.PutOptions{})
		if *mode == "gdpr" {
			cfg.Target = experiments.CompliantTarget(st)
		}
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
	defer cleanup()

	if !*skipLoad {
		res, err := experiments.Load(cfg)
		check(err)
		fmt.Println(res)
	}
	if !*loadOnly {
		res, err := experiments.Run(cfg)
		check(err)
		fmt.Println(res)
	}
}

// ycsbClient returns the SDK target for nodes: one connection per worker,
// or with -pool one shared pooled, optionally cluster-aware client — the
// pkg/gdprkv deployment shape — whose counters print at cleanup.
func ycsbClient(nodes []string) (func(int) (experiments.Target, error), func()) {
	switch {
	case len(nodes) == 0:
		log.Fatal("-mode network needs -addr or -cluster")
	case *pool == 0 && (*clusterF != "" || *autoBatch > 0):
		// Refuse rather than silently benchmark a setup the operator
		// believes is slot-routed or coalesced: those are
		// shared-pooled-client features.
		log.Fatal("-cluster and -auto-batch require -pool N")
	case *autoBatch > 0 && *batch > 1:
		log.Fatal("-auto-batch and -batch are mutually exclusive (both amortise round trips; pick one)")
	}
	if *pool == 0 {
		return experiments.SDKTarget(nodes[0], nil), func() {}
	}
	opts := []gdprkv.Option{gdprkv.WithPoolSize(*pool)}
	if *clusterF != "" {
		opts = append(opts, gdprkv.WithCluster(nodes[1:]...))
	}
	if *autoBatch > 0 {
		opts = append(opts, gdprkv.WithAutoBatch(0, *autoBatch))
	}
	shared, err := gdprkv.Dial(context.Background(), nodes[0], opts...)
	check(err)
	return experiments.SDKTarget("", shared), func() {
		st := shared.Stats()
		fmt.Printf("[client] pool=%d primary_reads=%d writes=%d retries=%d redials=%d redirects=%d\n",
			*pool, st.PrimaryReads, st.Writes, st.Retries, st.Redials, st.Redirects)
		if st.AutoBatchFlushes > 0 {
			fmt.Printf("[client] auto_batch_flushes=%d auto_batch_ops=%d (%.1f ops/flush)\n",
				st.AutoBatchFlushes, st.AutoBatchOps,
				float64(st.AutoBatchOps)/float64(st.AutoBatchFlushes))
		}
		shared.Close()
	}
}

// runPersonas populates the subject population, then runs each persona
// against an embedded compliant store, or through pkg/gdprkv against one
// server (-addr) or a cluster of primaries (-cluster) with one
// single-connection session per (persona actor, purpose).
func runPersonas() {
	pcfg := experiments.PersonaConfig{
		Subjects: *subjects, RecordsPerSubject: int(cmp.Or(*records, 10)),
		Operations: int(cmp.Or(*ops, 10000)), Seed: *seed, Batch: *batch,
	}
	roles := experiments.Roles
	if *roleStr != "all" {
		roles = []experiments.Role{experiments.Role(*roleStr)}
	}

	var target experiments.PersonaTarget
	where := ""
	if nodes := splitList(*addr + "," + *clusterF); len(nodes) > 0 {
		// ACL state is node-local: install the principal population on
		// every node, since each answers for the subjects of its slots.
		for _, n := range nodes {
			if err := experiments.InstallPrincipalsNet(context.Background(), n, pcfg.Subjects); err != nil {
				log.Fatalf("install principals on %s: %v", n, err)
			}
		}
		var opts []gdprkv.Option
		if *clusterF != "" {
			opts = append(opts, gdprkv.WithCluster(nodes[1:]...))
		}
		if *autoBatch > 0 {
			opts = append(opts, gdprkv.WithAutoBatch(0, *autoBatch))
		}
		p := experiments.NewNetPool(nodes[0], opts...)
		defer p.Close()
		target, where = p, " over the wire (network)"
		if *clusterF != "" {
			where = fmt.Sprintf(" over the wire (cluster of %d primaries)", len(nodes))
		}
	} else {
		if *autoBatch > 0 {
			log.Fatal("-auto-batch applies over the network only (use -addr or -cluster)")
		}
		st, closeStore := openStore(true, true)
		defer closeStore()
		check(experiments.InstallPrincipals(st, pcfg.Subjects))
		target = experiments.StorePersonas(st)
	}

	start := time.Now()
	check(experiments.Populate(target, pcfg))
	fmt.Printf("populated %d subjects x %d records%s in %v\n",
		pcfg.Subjects, pcfg.RecordsPerSubject, where, time.Since(start).Round(time.Millisecond))

	for _, role := range roles {
		rcfg := pcfg
		rcfg.Role = role
		var res experiments.Result
		var err error
		observed := sampled(func() { res, err = experiments.RunPersona(target, rcfg) })
		if err != nil {
			log.Fatalf("%s: %v", role, err)
		}
		res.OpsObserved = observed
		fmt.Println(res)
	}
}

// openStore opens the embedded store the flags describe: the baseline, or
// the full-capability compliant store (real-time by -timing, or by
// default when realtime is set). A compliant ycsb store journals to an
// AOF even without -aof, in -dir or a temporary directory removed at
// cleanup.
func openStore(compliant, realtime bool) (*core.Store, func()) {
	cfg := core.Baseline()
	if compliant {
		cfg = core.EventualFull(*auditPath)
		if *timing == "realtime" || (*timing == "" && realtime) {
			cfg.Timing = core.TimingRealTime
		}
		cfg.DefaultTTL = 24 * time.Hour
		cfg.AuditMask = *auditMask
		cfg.AuditBackpressure = choice("audit-backpressure", *auditBP, map[string]audit.Backpressure{
			"block": audit.BackpressureBlock, "drop": audit.BackpressureDrop})
	}
	cfg.Shards = *shards
	cfg.AOFPath = *aofPath
	cfg.AOFSync = choice("aof-sync", *aofSync, map[string]aof.SyncPolicy{
		"no": aof.SyncNo, "everysec": aof.SyncEverySec, "always": aof.SyncAlways})
	removeDir := func() {}
	if cfg.AOFPath == "" && compliant && *run == "ycsb" {
		d, cleanup, err := experiments.WorkDir(*dir, "ycsb-gdpr")
		check(err)
		cfg.AOFPath, removeDir = filepath.Join(d, "gdpr.aof"), cleanup
	}
	st, err := core.Open(cfg)
	check(err)
	return st, func() {
		st.Close()
		removeDir()
	}
}

// sampled runs fn under an ops-surface sampler when -ops-addr is set and
// returns the aggregated compliance-lag maxima it observed (nil without
// -ops-addr). The sampled server is whatever live gdprkv-server -ops-addr
// names: the one the personas drive, or, for the embedded scenarios, one
// under independent load, to watch its gauges move while this process
// stresses the same machine.
func sampled(fn func()) *experiments.OpsSample {
	if *opsAddr == "" {
		fn()
		return nil
	}
	s := experiments.NewOpsSampler(*opsAddr, 0)
	s.Start()
	fn()
	observed := s.Stop()
	return &observed
}

// scenario runs a scenario, prints its result as format renders it, then
// what the ops surface showed while it ran.
func scenario[T any](run func() (T, error), format func(T) string) {
	var res T
	var err error
	observed := sampled(func() { res, err = run() })
	check(err)
	fmt.Println(format(res))
	if observed != nil {
		fmt.Println(*observed)
	}
}

// show returns a printer of an experiment's result: the section title,
// then the rows format renders. It takes the experiment's (rows, err)
// results as they come, show(title, format)(experiment(...)).
func show[T any](title string, format func(T) string) func(T, error) {
	return func(rows T, err error) {
		check(err)
		section(title)
		fmt.Print(format(rows))
	}
}

// choice resolves the named value v of flag name in names: nil for "",
// fatal for a name it does not know.
func choice[T any](name, v string, names map[string]T) *T {
	if v == "" {
		return nil
	}
	t, ok := names[v]
	if !ok {
		log.Fatalf("unknown -%s %q", name, v)
	}
	return &t
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// splitList splits a comma-separated flag, trimming shell-natural spacing
// and dropping empties: a bogus node entry would silently poison routed
// calls with dial failures.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
