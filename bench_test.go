// Repository-level benchmarks: one per table/figure of the paper, plus
// ablations for the design choices called out in DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem
//
// Figure-scale notes: these are per-operation microbenchmarks over the
// same code paths the cmd/experiments harness drives end-to-end; the
// harness prints paper-shaped tables, the benchmarks make the costs
// visible to `go test -bench`.
package gdprstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
	"gdprstore/internal/core"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/experiments"
	"gdprstore/internal/gdprbench"
	"gdprstore/internal/resp"
	"gdprstore/internal/server"
	"gdprstore/internal/store"
	"gdprstore/internal/tlsproxy"
	"gdprstore/internal/ycsb"
)

const (
	benchRecords   = 2000
	benchValueSize = 1000
)

// --- Table 1 ---

// BenchmarkTable1_Format regenerates the Table 1 mapping (the artifact is
// static; the benchmark keeps the table in the bench inventory and guards
// against accidental bloat in the hot article-registry path).
func BenchmarkTable1_Format(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.FormatTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figure 1: Unmodified vs AOF-w/-sync vs LUKS+TLS over the network ---

// fig1Env starts a server in one of Figure 1's three setups and preloads
// the YCSB dataset.
func fig1Env(b *testing.B, setup string) (addr string, cleanup func()) {
	b.Helper()
	dir := b.TempDir()
	var cfg core.Config
	tunneled := false
	switch setup {
	case "Unmodified":
		cfg = core.Baseline()
	case "AOFSync":
		cfg = core.Baseline()
		cfg.AOFPath = filepath.Join(dir, "sync.aof")
		cfg.AOFSync = core.Ptr(aof.SyncAlways)
		cfg.JournalReads = true
	case "LUKSTLS":
		cfg = core.Baseline()
		cfg.AOFPath = filepath.Join(dir, "luks.aof")
		cfg.AOFSync = core.Ptr(aof.SyncEverySec)
		key := make([]byte, 32)
		for i := range key {
			key[i] = byte(i)
		}
		cfg.AtRestKey = key
		tunneled = true
	default:
		b.Fatalf("unknown setup %s", setup)
	}
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		st.Close()
		b.Fatal(err)
	}
	addr = srv.Addr()
	var tun *tlsproxy.Tunnel
	if tunneled {
		tun, err = tlsproxy.NewTunnel(srv.Addr(), tlsproxy.Throttle{})
		if err != nil {
			srv.Close()
			st.Close()
			b.Fatal(err)
		}
		addr = tun.Addr()
	}
	// Preload outside the timer.
	_, err = ycsb.Load(ycsb.Config{
		Workload: ycsb.WorkloadA, RecordCount: benchRecords, ValueSize: benchValueSize,
		Workers: 4, Factory: func(int) (ycsb.DB, error) { return ycsb.DialNetworkDB(addr) },
	})
	if err != nil {
		b.Fatal(err)
	}
	return addr, func() {
		if tun != nil {
			tun.Close()
		}
		srv.Close()
		st.Close()
	}
}

// benchFig1 runs b.N operations of the given workload mix against the
// setup, with one connection per parallel worker (YCSB-thread style).
func benchFig1(b *testing.B, setup string, w ycsb.Workload) {
	addr, cleanup := fig1Env(b, setup)
	defer cleanup()
	chooser := ycsb.NewScrambledZipfian(benchRecords)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		db, err := ycsb.DialNetworkDB(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(seed.Add(1)))
		val := make([]byte, benchValueSize)
		for pb.Next() {
			key := ycsb.KeyName(chooser.Next(rng))
			if rng.Float64() < w.ReadProportion {
				if err := db.Read(key); err != nil {
					b.Error(err)
					return
				}
			} else {
				if err := db.Update(key, val); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

func BenchmarkFigure1_Unmodified_WorkloadA(b *testing.B) { benchFig1(b, "Unmodified", ycsb.WorkloadA) }
func BenchmarkFigure1_Unmodified_WorkloadB(b *testing.B) { benchFig1(b, "Unmodified", ycsb.WorkloadB) }
func BenchmarkFigure1_Unmodified_WorkloadC(b *testing.B) { benchFig1(b, "Unmodified", ycsb.WorkloadC) }
func BenchmarkFigure1_AOFSync_WorkloadA(b *testing.B)    { benchFig1(b, "AOFSync", ycsb.WorkloadA) }
func BenchmarkFigure1_AOFSync_WorkloadB(b *testing.B)    { benchFig1(b, "AOFSync", ycsb.WorkloadB) }
func BenchmarkFigure1_AOFSync_WorkloadC(b *testing.B)    { benchFig1(b, "AOFSync", ycsb.WorkloadC) }
func BenchmarkFigure1_LUKSTLS_WorkloadA(b *testing.B)    { benchFig1(b, "LUKSTLS", ycsb.WorkloadA) }
func BenchmarkFigure1_LUKSTLS_WorkloadB(b *testing.B)    { benchFig1(b, "LUKSTLS", ycsb.WorkloadB) }
func BenchmarkFigure1_LUKSTLS_WorkloadC(b *testing.B)    { benchFig1(b, "LUKSTLS", ycsb.WorkloadC) }

// --- §4.1: fsync spectrum (Figure 1's AOF bars, isolated, embedded) ---

func benchFsync(b *testing.B, policy aof.SyncPolicy, journalReads bool) {
	cfg := core.Baseline()
	cfg.AOFPath = filepath.Join(b.TempDir(), "bench.aof")
	cfg.AOFSync = core.Ptr(policy)
	cfg.JournalReads = journalReads
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := make([]byte, benchValueSize)
	for i := 0; i < benchRecords; i++ {
		st.Engine().Set(ycsb.KeyName(int64(i)), val)
	}
	rng := rand.New(rand.NewSource(1))
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ycsb.KeyName(rng.Int63n(benchRecords))
		if i%2 == 0 {
			st.Engine().GetNoCopy(key, now)
		} else {
			st.Engine().Set(key, val)
		}
	}
}

func BenchmarkFsyncSpectrum_NoLogging(b *testing.B) { benchFsync(b, aof.SyncNo, false) }
func BenchmarkFsyncSpectrum_EverySec(b *testing.B)  { benchFsync(b, aof.SyncEverySec, true) }
func BenchmarkFsyncSpectrum_Always(b *testing.B)    { benchFsync(b, aof.SyncAlways, true) }

// --- Figure 2: erasure delay ---

// BenchmarkFigure2_LazySimulation measures the cost of simulating the
// probabilistic expiry run at each datastore size and reports the paper's
// metrics (simulated erasure delay, cycle count) via ReportMetric.
func BenchmarkFigure2_LazySimulation(b *testing.B) {
	for _, n := range []int{1000, 8000, 64000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				vc := clock.NewVirtual(time.Unix(0, 0))
				db := store.New(store.Options{Clock: vc, Seed: int64(i + 1), Strategy: store.ExpiryLazyProbabilistic})
				due := populateExpiring(db, n)
				vc.Advance(5 * time.Minute)
				exp := store.NewExpirer(db)
				cycles = 0
				for db.ExpiredCount() < uint64(due) {
					exp.Step()
					cycles++
				}
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(cycles)*0.1, "sim-seconds")
		})
	}
}

// BenchmarkFigure2_FastScan measures the real wall cost of the paper's
// modification: one full-scan expiry cycle that erases all due keys.
func BenchmarkFigure2_FastScan(b *testing.B) {
	for _, n := range []int{1000, 8000, 64000, 1000000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vc := clock.NewVirtual(time.Unix(0, 0))
				db := store.New(store.Options{Clock: vc, Seed: 1, Strategy: store.ExpiryFastScan})
				due := populateExpiring(db, n)
				vc.Advance(5 * time.Minute)
				b.StartTimer()
				st := db.ActiveExpireCycle()
				if st.Expired != due {
					b.Fatalf("expired %d, want %d", st.Expired, due)
				}
			}
		})
	}
}

// BenchmarkFigure2_ExpiryHeap is the ablation: timely deletion via the
// deadline heap, touching only due keys.
func BenchmarkFigure2_ExpiryHeap(b *testing.B) {
	for _, n := range []int{1000, 8000, 64000, 1000000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vc := clock.NewVirtual(time.Unix(0, 0))
				db := store.New(store.Options{Clock: vc, Seed: 1, Strategy: store.ExpiryHeap})
				due := populateExpiring(db, n)
				vc.Advance(5 * time.Minute)
				b.StartTimer()
				st := db.ActiveExpireCycle()
				if st.Expired != due {
					b.Fatalf("expired %d, want %d", st.Expired, due)
				}
			}
		})
	}
}

func populateExpiring(db *store.DB, n int) (due int) {
	for i := 0; i < n; i++ {
		key := ycsb.KeyName(int64(i))
		if i%5 == 0 {
			db.SetEX(key, []byte("payload"), 5*time.Minute)
			due++
		} else {
			db.SetEX(key, []byte("payload"), 5*24*time.Hour)
		}
	}
	return due
}

// --- §3.2: compliance spectrum ---

func benchSpectrum(b *testing.B, cfg core.Config) {
	cfg.DefaultTTL = 24 * time.Hour
	if cfg.Compliant {
		cfg.AuditEnabled = true
		cfg.AuditPath = filepath.Join(b.TempDir(), "audit.log")
	}
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
	ctx := core.Ctx{Actor: "bench", Purpose: "benchmark"}
	opts := core.PutOptions{Owner: "subject", Purposes: []string{"benchmark"}}
	val := make([]byte, benchValueSize)
	for i := 0; i < benchRecords; i++ {
		if err := st.Put(ctx, ycsb.KeyName(int64(i)), val, opts); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ycsb.KeyName(rng.Int63n(benchRecords))
		if i%2 == 0 {
			if _, err := st.Get(ctx, key); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := st.Put(ctx, key, val, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkComplianceSpectrum_Baseline(b *testing.B) {
	benchSpectrum(b, core.Baseline())
}

func BenchmarkComplianceSpectrum_EventualPartial(b *testing.B) {
	benchSpectrum(b, core.Config{Compliant: true, Timing: core.TimingEventual, Capability: core.CapabilityPartial})
}

func BenchmarkComplianceSpectrum_EventualFull(b *testing.B) {
	benchSpectrum(b, core.Config{Compliant: true, Timing: core.TimingEventual, Capability: core.CapabilityFull})
}

func BenchmarkComplianceSpectrum_RealTimePartial(b *testing.B) {
	benchSpectrum(b, core.Config{Compliant: true, Timing: core.TimingRealTime, Capability: core.CapabilityPartial})
}

func BenchmarkComplianceSpectrum_RealTimeFull(b *testing.B) {
	benchSpectrum(b, core.Config{Compliant: true, Timing: core.TimingRealTime, Capability: core.CapabilityFull})
}

// --- §4.2: TLS tunnel bandwidth ---

// BenchmarkTLSProxyBandwidth reports bytes/sec through the stunnel
// stand-in; compare with BenchmarkDirectTCPBandwidth for the §4.2 collapse.
func BenchmarkTLSProxyBandwidth(b *testing.B) {
	rows, err := experiments.TLSBandwidth(int64(b.N) * 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rows[1].BytesPerSec/1e6, "tunnel-MB/s")
	b.ReportMetric(rows[0].BytesPerSec/1e6, "direct-MB/s")
	b.ReportMetric(rows[0].BytesPerSec/rows[1].BytesPerSec, "reduction-x")
}

// --- GDPR-persona workloads (GDPRbench-style) ---

func benchPersona(b *testing.B, role gdprbench.Role) {
	cfg := core.Strict("")
	cfg.DefaultTTL = 24 * time.Hour
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	st.ACL().AddPrincipal(acl.Principal{ID: "processor", Role: acl.RoleProcessor})
	st.ACL().AddPrincipal(acl.Principal{ID: "regulator", Role: acl.RoleRegulator})
	const subjects = 100
	for i := 0; i < subjects; i++ {
		st.ACL().AddPrincipal(acl.Principal{ID: gdprbench.SubjectName(i), Role: acl.RoleSubject})
	}
	if err := st.ACL().AddGrant(acl.Grant{Principal: "processor", Purpose: "*"}); err != nil {
		b.Fatal(err)
	}
	bcfg := gdprbench.Config{Subjects: subjects, RecordsPerSubject: 5, Role: role}
	if err := gdprbench.Populate(st, core.Ctx{Actor: "controller", Purpose: "populate"}, bcfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	bcfg.Operations = b.N
	res, err := gdprbench.Run(st, bcfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d errors", res.Errors)
	}
}

func BenchmarkGDPRBench_Customer(b *testing.B)   { benchPersona(b, gdprbench.RoleCustomer) }
func BenchmarkGDPRBench_Controller(b *testing.B) { benchPersona(b, gdprbench.RoleController) }
func BenchmarkGDPRBench_Processor(b *testing.B)  { benchPersona(b, gdprbench.RoleProcessor) }
func BenchmarkGDPRBench_Regulator(b *testing.B)  { benchPersona(b, gdprbench.RoleRegulator) }

// BenchmarkForget_KeysPerOwner is the Article 17 cost-model benchmark:
// FORGETUSER latency as a function of the subject's key count, eager
// deletion (shred=false) vs the crypto-shred fast path (shred=true).
// Eager scales linearly with keys-per-owner; shredding stays flat — the
// erasure is one keyring mutation plus two journal appends regardless of
// cardinality, with physical reclamation deferred to the lazy-delete
// sweep (run off the timer here).
func BenchmarkForget_KeysPerOwner(b *testing.B) {
	for _, keys := range []int{16, 256, 4096} {
		for _, shred := range []bool{false, true} {
			b.Run(fmt.Sprintf("keys=%d/shred=%v", keys, shred), func(b *testing.B) {
				cfg := core.Config{
					Compliant:  true,
					Timing:     core.TimingEventual,
					Capability: core.CapabilityPartial,
				}
				if shred {
					cfg.Envelope = true
					key, _ := cryptoutil.RandomKey()
					cfg.MasterKey = key
				}
				st, err := core.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				ctx := core.Ctx{Actor: "bench", Purpose: "p"}
				val := make([]byte, 128)
				entries := make([]core.BatchEntry, keys)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// Reclaim the previous iteration's dead ciphertext off
					// the timer so the engine does not grow across b.N.
					st.DrainErasure()
					owner := fmt.Sprintf("forget-subject-%d", i)
					for j := range entries {
						entries[j] = core.BatchEntry{
							Key: fmt.Sprintf("%s:rec%04d", owner, j), Value: val,
						}
					}
					if err := st.PutBatch(ctx, entries, core.PutOptions{
						Owner: owner, Purposes: []string{"p"},
					}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := st.Forget(core.Ctx{Actor: owner}, owner); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_EnvelopeEncryption isolates the key-level encryption
// alternative of §4.2: per-record seal/open under per-owner keys.
func BenchmarkAblation_EnvelopeEncryption(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Strict("")
			cfg.DefaultTTL = 24 * time.Hour
			if on {
				cfg.Envelope = true
				key, _ := cryptoutil.RandomKey()
				cfg.MasterKey = key
			}
			st, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
			ctx := core.Ctx{Actor: "bench", Purpose: "p"}
			opts := core.PutOptions{Owner: "subject", Purposes: []string{"p"}}
			val := make([]byte, benchValueSize)
			if err := st.Put(ctx, "k", val, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					if _, err := st.Get(ctx, "k"); err != nil {
						b.Fatal(err)
					}
				} else if err := st.Put(ctx, "k", val, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MetadataIndex compares the owner-index lookup behind
// Art. 15/17/20 against the full keyspace scan a store without metadata
// indexing would need.
func BenchmarkAblation_MetadataIndex(b *testing.B) {
	cfg := core.Strict("")
	cfg.DefaultTTL = 24 * time.Hour
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "ctl", Role: acl.RoleController})
	ctx := core.Ctx{Actor: "ctl", Purpose: "p"}
	const owners, each = 200, 20
	for o := 0; o < owners; o++ {
		owner := fmt.Sprintf("owner%04d", o)
		for j := 0; j < each; j++ {
			key := fmt.Sprintf("%s:rec%03d", owner, j)
			if err := st.Put(ctx, key, []byte("v"), core.PutOptions{Owner: owner, Purposes: []string{"p"}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keys, err := st.OwnerKeys(ctx, fmt.Sprintf("owner%04d", i%owners))
			if err != nil || len(keys) != each {
				b.Fatalf("keys=%d err=%v", len(keys), err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			owner := fmt.Sprintf("owner%04d", i%owners)
			n := 0
			st.Engine().RangeKeys(func(k string, v []byte) bool {
				if len(k) >= len(owner) && k[:len(owner)] == owner {
					n++
				}
				return true
			})
			if n != each {
				b.Fatalf("scan found %d", n)
			}
		}
	})
}

// BenchmarkAblation_AuditModes isolates the audit trail cost (the §4.1
// monitoring feature) per durability mode.
func BenchmarkAblation_AuditModes(b *testing.B) {
	for _, mode := range []audit.SyncMode{audit.SyncNone, audit.SyncBatched, audit.SyncEveryOp} {
		b.Run(mode.String(), func(b *testing.B) {
			tr, err := audit.Open(audit.Options{
				Path: filepath.Join(b.TempDir(), "audit.log"),
				Mode: mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			rec := audit.Record{Actor: "svc", Op: "GET", Key: "k", Owner: "alice", Outcome: audit.OutcomeOK}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAudit_Enqueue measures the data-path cost of the async
// pipeline's Append alone: a bounded-queue enqueue, no handshake (batched
// mode), workers draining concurrently.
func BenchmarkAudit_Enqueue(b *testing.B) {
	tr, err := audit.Open(audit.Options{
		Path: filepath.Join(b.TempDir(), "audit.log"),
		Mode: audit.SyncBatched,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rec := audit.Record{Actor: "svc", Op: "GET", Key: "k", Owner: "alice", Outcome: audit.OutcomeOK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudit_WorkerThroughput measures end-to-end pipeline throughput:
// enqueue everything, then drain to the file sink (the Sync barrier waits
// for the workers), so the figure includes masking off, serialization and
// buffered writes.
func BenchmarkAudit_WorkerThroughput(b *testing.B) {
	tr, err := audit.Open(audit.Options{
		Path: filepath.Join(b.TempDir(), "audit.log"),
		Mode: audit.SyncBatched,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rec := audit.Record{Actor: "svc", Op: "GET", Key: "k", Owner: "alice", Outcome: audit.OutcomeOK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAudit_StrictHandshake measures the strict-compliance ack path:
// each Append returns only after its record is fsynced (the §4.1 real-time
// cost, now paid through the pipeline's completion handshake).
func BenchmarkAudit_StrictHandshake(b *testing.B) {
	tr, err := audit.Open(audit.Options{
		Path: filepath.Join(b.TempDir(), "audit.log"),
		Mode: audit.SyncEveryOp,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rec := audit.Record{Actor: "svc", Op: "PUT", Key: "k", Owner: "alice", Outcome: audit.OutcomeOK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudit_StrictGroupCommitParallel shows the group-commit upside:
// concurrent strict appends share fsyncs, so per-append cost falls with
// parallelism while each ack still implies durability.
func BenchmarkAudit_StrictGroupCommitParallel(b *testing.B) {
	tr, err := audit.Open(audit.Options{
		Path: filepath.Join(b.TempDir(), "audit.log"),
		Mode: audit.SyncEveryOp,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rec := audit.Record{Actor: "svc", Op: "PUT", Key: "k", Owner: "alice", Outcome: audit.OutcomeOK}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tr.Append(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAudit_MaskedEnqueue adds the PII-masking stage, so the gate
// watches the HMAC cost too.
func BenchmarkAudit_MaskedEnqueue(b *testing.B) {
	tr, err := audit.Open(audit.Options{
		Path:    filepath.Join(b.TempDir(), "audit.log"),
		Mode:    audit.SyncBatched,
		MaskKey: []byte("bench-mask-key"),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rec := audit.Record{Actor: "svc", Op: "GET", Key: "k", Owner: "alice", Outcome: audit.OutcomeOK}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblation_AtRestCipher measures the LUKS stand-in's raw
// throughput: XORing the offset-keyed AES-CTR keystream over data.
func BenchmarkAblation_AtRestCipher(b *testing.B) {
	key := make([]byte, 32)
	c, err := cryptoutil.NewOffsetCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(buf, int64(i)*int64(len(buf)))
	}
}

// BenchmarkAblation_RightsOps measures the data-subject rights operations
// themselves (access, export, forget) at a fixed subject size.
func BenchmarkAblation_RightsOps(b *testing.B) {
	newStore := func(b *testing.B) (*core.Store, core.Ctx) {
		cfg := core.EventualFull("") // avoid per-op rewrite dominating Forget
		cfg.DefaultTTL = 24 * time.Hour
		st, err := core.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		st.ACL().AddPrincipal(acl.Principal{ID: "ctl", Role: acl.RoleController})
		return st, core.Ctx{Actor: "ctl", Purpose: "p"}
	}
	fill := func(b *testing.B, st *core.Store, ctx core.Ctx, owner string) {
		for j := 0; j < 20; j++ {
			key := fmt.Sprintf("%s:rec%03d", owner, j)
			if err := st.Put(ctx, key, []byte("value-payload"), core.PutOptions{Owner: owner, Purposes: []string{"p"}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("access", func(b *testing.B) {
		st, ctx := newStore(b)
		fill(b, st, ctx, "alice")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Access(ctx, "alice"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("export", func(b *testing.B) {
		st, ctx := newStore(b)
		fill(b, st, ctx, "alice")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Export(ctx, "alice"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forget", func(b *testing.B) {
		st, ctx := newStore(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			owner := fmt.Sprintf("owner%d", i)
			fill(b, st, ctx, owner)
			b.StartTimer()
			if _, err := st.Forget(ctx, owner); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- engine microbenchmarks ---

// benchGoroutines raises the goroutine count of the *Parallel benchmarks
// to at least 8: RunParallel spawns GOMAXPROCS×SetParallelism goroutines,
// so the actual count is the smallest multiple of GOMAXPROCS ≥ 8 (exactly
// 8 when GOMAXPROCS divides 8). Worker ids wrap modulo 8 onto the
// preloaded key ranges, so on other core counts some ranges carry one
// extra goroutine — fine for a contention benchmark, but compare numbers
// across machines with the same GOMAXPROCS.
func benchGoroutines(b *testing.B) int {
	procs := runtime.GOMAXPROCS(0)
	n := (8 + procs - 1) / procs
	b.SetParallelism(n)
	return n * procs
}

// BenchmarkEngine_SetParallel hammers SET from 8 goroutines over disjoint
// key ranges — the workload the sharded engine is built for: independent
// keys must proceed in parallel instead of convoying on one global mutex.
func BenchmarkEngine_SetParallel(b *testing.B) {
	db := store.New(store.Options{})
	val := make([]byte, benchValueSize)
	var worker atomic.Int64
	benchGoroutines(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		i := 0
		for pb.Next() {
			db.Set(fmt.Sprintf("w%d-%d", id, i%benchRecords), val)
			i++
		}
	})
}

// BenchmarkEngine_GetParallel is the read-side contention benchmark.
func BenchmarkEngine_GetParallel(b *testing.B) {
	db := store.New(store.Options{})
	val := make([]byte, benchValueSize)
	for w := 1; w <= 8; w++ {
		for i := 0; i < benchRecords; i++ {
			db.Set(fmt.Sprintf("w%d-%d", w, i), val)
		}
	}
	var worker atomic.Int64
	benchGoroutines(b)
	now := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)%8 + 1
		i := 0
		for pb.Next() {
			db.GetNoCopy(fmt.Sprintf("w%d-%d", id, i%benchRecords), now)
			i++
		}
	})
}

// BenchmarkCore_GPutParallel drives the compliance layer's GPUT path from 8
// goroutines, each writing records for a different data subject — the
// per-owner striping case: different owners must not contend.
func BenchmarkCore_GPutParallel(b *testing.B) {
	cfg := core.Config{Compliant: true, Timing: core.TimingEventual, Capability: core.CapabilityFull}
	cfg.DefaultTTL = 24 * time.Hour
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
	ctx := core.Ctx{Actor: "bench", Purpose: "benchmark"}
	val := make([]byte, benchValueSize)
	var worker atomic.Int64
	benchGoroutines(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		owner := fmt.Sprintf("subject%d", id)
		opts := core.PutOptions{Owner: owner, Purposes: []string{"benchmark"}}
		i := 0
		for pb.Next() {
			if err := st.Put(ctx, fmt.Sprintf("%s:rec%d", owner, i%benchRecords), val, opts); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkCore_GGetParallel is the owner-striped read path.
func BenchmarkCore_GGetParallel(b *testing.B) {
	cfg := core.Config{Compliant: true, Timing: core.TimingEventual, Capability: core.CapabilityFull}
	cfg.DefaultTTL = 24 * time.Hour
	st, err := core.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
	ctx := core.Ctx{Actor: "bench", Purpose: "benchmark"}
	val := make([]byte, benchValueSize)
	for w := 1; w <= 8; w++ {
		owner := fmt.Sprintf("subject%d", w)
		opts := core.PutOptions{Owner: owner, Purposes: []string{"benchmark"}}
		for i := 0; i < 256; i++ {
			if err := st.Put(ctx, fmt.Sprintf("%s:rec%d", owner, i), val, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	var worker atomic.Int64
	benchGoroutines(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)%8 + 1
		owner := fmt.Sprintf("subject%d", id)
		i := 0
		for pb.Next() {
			if _, err := st.Get(ctx, fmt.Sprintf("%s:rec%d", owner, i%256)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkCore_GetUser is one Art. 15 read of a subject with recs records
// (100-byte values, envelope encryption on, as on the repo benchmark's
// rights-under-write workload): ns/op ÷ recs is the per-record cost of the
// owner walk.
func BenchmarkCore_GetUser(b *testing.B) {
	for _, recs := range []int{16, 256} {
		b.Run(fmt.Sprintf("recs=%d", recs), func(b *testing.B) {
			cfg := core.Config{Compliant: true, Timing: core.TimingEventual, Capability: core.CapabilityFull}
			cfg.DefaultTTL = 24 * time.Hour
			cfg.Envelope = true
			cfg.MasterKey = bytes.Repeat([]byte{7}, cryptoutil.BlockCipherKeySize)
			st, err := core.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
			ctx := core.Ctx{Actor: "bench", Purpose: "benchmark"}
			opts := core.PutOptions{Owner: "subject", Purposes: []string{"benchmark"}}
			val := make([]byte, 100)
			for i := 0; i < recs; i++ {
				if err := st.Put(ctx, fmt.Sprintf("subject:rec%d", i), val, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := st.GetUser(ctx, "subject")
				if err != nil || len(got) != recs {
					b.Fatalf("GetUser: %d records, %v", len(got), err)
				}
			}
		})
	}
}

func BenchmarkEngine_Set(b *testing.B) {
	db := store.New(store.Options{})
	val := make([]byte, benchValueSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Set(ycsb.KeyName(int64(i%benchRecords)), val)
	}
}

func BenchmarkEngine_Get(b *testing.B) {
	db := store.New(store.Options{})
	val := make([]byte, benchValueSize)
	for i := 0; i < benchRecords; i++ {
		db.Set(ycsb.KeyName(int64(i)), val)
	}
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.GetNoCopy(ycsb.KeyName(int64(i%benchRecords)), now)
	}
}

func BenchmarkRESPRoundTrip(b *testing.B) {
	st, err := core.Open(core.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	db, err := ycsb.DialNetworkDB(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert("k", []byte("v")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Read("k"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- RESP serialization hot path (PR: wire-speed client API) ---

// BenchmarkResp_WriteCommand measures the client's command-encode fast
// path: WriteCommandBytes straight into a bufio.Writer, no Value boxing.
// The allocation budget is asserted at 0 allocs/op by the resp package's
// TestWriteCommandBytesAllocFree; the benchmark tracks the cycle cost.
func BenchmarkResp_WriteCommand(b *testing.B) {
	w := resp.NewWriter(io.Discard)
	args := [][]byte{[]byte("SET"), []byte("user0000000042"), make([]byte, 100)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteCommandBytes(args); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResp_ReadReply measures decode of a typical small pipeline
// reply batch (+OK, an integer, a bulk string) from a pre-encoded buffer.
func BenchmarkResp_ReadReply(b *testing.B) {
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		w.WriteValue(resp.SimpleStringValue("OK"))
		w.WriteValue(resp.IntegerValue(12345))
		w.WriteValue(resp.BulkValue(make([]byte, 100)))
	}
	w.Flush()
	wire := buf.Bytes()
	rd := bytes.NewReader(wire)
	r := resp.NewReader(rd)
	b.SetBytes(int64(len(wire) / 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%9 == 0 {
			rd.Reset(wire)
			r.Reset(rd)
		}
		if _, err := r.ReadValue(); err != nil {
			b.Fatal(err)
		}
	}
}
