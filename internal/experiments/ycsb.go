package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/pkg/gdprkv"
)

// This file reimplements the Yahoo! Cloud Serving Benchmark core workloads
// (Cooper et al., SoCC '10) — the harness the paper uses for every
// throughput number in Figure 1: the workload definitions A–F with their
// load phases, run through the timed loop against one of two targets.

// OpType is one YCSB operation kind.
type OpType int

// Operation kinds.
const (
	OpRead OpType = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

// String returns the YCSB report name of the operation.
func (o OpType) String() string {
	return [...]string{"READ", "UPDATE", "INSERT", "SCAN", "READ-MODIFY-WRITE"}[o]
}

// Distribution names accepted by Workload.RequestDistribution.
const (
	DistZipfian = "zipfian"
	DistUniform = "uniform"
	DistLatest  = "latest"
)

// Workload is a YCSB core-workload definition.
type Workload struct {
	// Name is the workload letter ("A".."F").
	Name string
	// Proportions of each operation; they must sum to 1.
	ReadProportion            float64
	UpdateProportion          float64
	InsertProportion          float64
	ScanProportion            float64
	ReadModifyWriteProportion float64
	// RequestDistribution chooses keys: zipfian, uniform, or latest.
	RequestDistribution string
	// MaxScanLength bounds scan sizes (workload E); lengths are uniform
	// in [1, MaxScanLength].
	MaxScanLength int
}

// Core workloads A–F with YCSB's canonical parameters.
var (
	// WorkloadA: update heavy, 50/50 read/update, zipfian.
	WorkloadA = Workload{Name: "A", ReadProportion: 0.5, UpdateProportion: 0.5, RequestDistribution: DistZipfian}
	// WorkloadB: read mostly, 95/5, zipfian.
	WorkloadB = Workload{Name: "B", ReadProportion: 0.95, UpdateProportion: 0.05, RequestDistribution: DistZipfian}
	// WorkloadC: read only, zipfian.
	WorkloadC = Workload{Name: "C", ReadProportion: 1.0, RequestDistribution: DistZipfian}
	// WorkloadD: read latest, 95/5 read/insert.
	WorkloadD = Workload{Name: "D", ReadProportion: 0.95, InsertProportion: 0.05, RequestDistribution: DistLatest}
	// WorkloadE: short ranges, 95/5 scan/insert, max 100.
	WorkloadE = Workload{Name: "E", ScanProportion: 0.95, InsertProportion: 0.05, RequestDistribution: DistZipfian, MaxScanLength: 100}
	// WorkloadF: read-modify-write, 50/50 read/RMW, zipfian.
	WorkloadF = Workload{Name: "F", ReadProportion: 0.5, ReadModifyWriteProportion: 0.5, RequestDistribution: DistZipfian}
)

// CoreWorkloads maps workload letters to definitions.
var CoreWorkloads = map[string]Workload{
	"A": WorkloadA, "B": WorkloadB, "C": WorkloadC,
	"D": WorkloadD, "E": WorkloadE, "F": WorkloadF,
}

// Validate checks the proportions sum to 1 (±1e-9).
func (w Workload) Validate() error {
	sum := w.ReadProportion + w.UpdateProportion + w.InsertProportion +
		w.ScanProportion + w.ReadModifyWriteProportion
	if diff := sum - 1.0; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("ycsb: workload %s proportions sum to %v", w.Name, sum)
	}
	if w.ScanProportion > 0 && w.MaxScanLength <= 0 {
		return fmt.Errorf("ycsb: workload %s scans but MaxScanLength unset", w.Name)
	}
	switch w.RequestDistribution {
	case DistZipfian, DistUniform, DistLatest:
	default:
		return fmt.Errorf("ycsb: workload %s unknown distribution %q", w.Name, w.RequestDistribution)
	}
	return nil
}

// chooseOp picks the next operation type per the proportions.
func (w Workload) chooseOp(r *rand.Rand) OpType {
	f := r.Float64()
	if f < w.ReadProportion {
		return OpRead
	}
	f -= w.ReadProportion
	if f < w.UpdateProportion {
		return OpUpdate
	}
	f -= w.UpdateProportion
	if f < w.InsertProportion {
		return OpInsert
	}
	f -= w.InsertProportion
	if f < w.ScanProportion {
		return OpScan
	}
	return OpReadModifyWrite
}

// KeyName formats item index i as a YCSB key ("user" + zero-padded
// number), so keys sort in insertion order for scans.
func KeyName(i int64) string {
	return fmt.Sprintf("user%012d", i)
}

// Target is one worker's connection to the store under test. Both calls
// take a group of keys: one key goes through the scalar call, more
// through the batch command family (DESIGN.md §4).
type Target interface {
	get(keys []string) error
	put(keys []string, vals [][]byte) error
	scan(start string, count int) error
	Close() error
}

// EmbeddedTarget drives st in-process, every worker sharing it. A zero
// ctx is the baseline (non-GDPR) path — Figure 1's "Unmodified"
// configuration on a core.Baseline() store; an actor and purpose put the
// compliance machinery on the hot path, with opts as every record's
// metadata.
func EmbeddedTarget(st *core.Store, ctx core.Ctx, opts core.PutOptions) func(int) (Target, error) {
	t := embeddedTarget{st: st, ctx: ctx, opts: opts}
	return func(int) (Target, error) { return t, nil }
}

// CompliantTarget drives st's compliance path as the controller "bench",
// which it installs: every operation declares purpose "benchmark", and
// every record carries owner and purpose metadata.
func CompliantTarget(st *core.Store) func(int) (Target, error) {
	st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
	return EmbeddedTarget(st, core.Ctx{Actor: "bench", Purpose: "benchmark"},
		core.PutOptions{Owner: "subject", Purposes: []string{"benchmark"}})
}

type embeddedTarget struct {
	st   *core.Store
	ctx  core.Ctx
	opts core.PutOptions
}

func (e embeddedTarget) get(keys []string) error {
	if len(keys) == 1 {
		_, err := e.st.Get(e.ctx, keys[0])
		return ignoreBenign(err)
	}
	res, err := e.st.GetBatch(e.ctx, keys)
	return batchErr(err, len(res), func(i int) error { return res[i].Err })
}

func (e embeddedTarget) put(keys []string, vals [][]byte) error {
	if len(keys) == 1 {
		return e.st.Put(e.ctx, keys[0], vals[0], e.opts)
	}
	entries := make([]core.BatchEntry, len(keys))
	for i := range keys {
		entries[i] = core.BatchEntry{Key: keys[i], Value: vals[i]}
	}
	return e.st.PutBatch(e.ctx, entries, e.opts)
}

// scan uses the engine's ordered scan.
func (e embeddedTarget) scan(start string, count int) error {
	n := 0
	e.st.Engine().RangeKeys(func(k string, v []byte) bool {
		if k >= start {
			n++
		}
		return n < count
	})
	return nil
}

// Close is a no-op: the store is shared.
func (embeddedTarget) Close() error { return nil }

// SDKTarget drives a gdprstore server over TCP (optionally through the TLS
// tunnel), the topology the paper's YCSB deployment used against Redis.
// With a shared client every worker saturates it — one pooled,
// optionally cluster-aware client — and Close leaves it open; with shared nil each
// worker dials its own single-connection client to addr, the classic YCSB
// thread model.
func SDKTarget(addr string, shared *gdprkv.Client) func(int) (Target, error) {
	return func(int) (Target, error) {
		if shared != nil {
			return sdkTarget{c: shared}, nil
		}
		c, err := gdprkv.Dial(context.Background(), addr, gdprkv.WithPoolSize(1))
		if err != nil {
			return nil, err
		}
		return sdkTarget{c: c, owned: true}, nil
	}
}

type sdkTarget struct {
	c     *gdprkv.Client
	owned bool
}

func (s sdkTarget) get(keys []string) error {
	var err error
	if len(keys) == 1 {
		_, err = s.c.Get(context.Background(), keys[0])
	} else {
		_, err = s.c.MGet(context.Background(), keys...)
	}
	return ignoreBenign(err)
}

func (s sdkTarget) put(keys []string, vals [][]byte) error {
	if len(keys) == 1 {
		return s.c.Set(context.Background(), keys[0], vals[0])
	}
	return s.c.MSet(context.Background(), keys, vals)
}

// scan approximates SCAN-by-prefix from an arbitrary start key with a
// MATCH over the shared prefix; YCSB only measures the latency of fetching
// ~count keys, which this preserves.
func (s sdkTarget) scan(_ string, count int) error {
	_, _, err := s.c.Scan(context.Background(), 0, "user*", count)
	return err
}

func (s sdkTarget) Close() error {
	if !s.owned {
		return nil
	}
	return s.c.Close()
}

// ignoreBenign drops an error the workload expects, such as a read that
// misses: YCSB counts it as a completed read, and zipfian+inserts make
// occasional misses expected.
func ignoreBenign(err error) error {
	if benign(err) {
		return nil
	}
	return err
}

// YCSBConfig parameterises one benchmark phase.
type YCSBConfig struct {
	// Workload is the core workload to run.
	Workload Workload
	// RecordCount is the number of records loaded before the run phase
	// (YCSB recordcount).
	RecordCount int64
	// OperationCount is the number of operations in the run phase (the
	// paper uses 2M).
	OperationCount int64
	// ValueSize is the record payload size in bytes (YCSB's default
	// record is ~1 KB; default 1000).
	ValueSize int
	// Workers is the number of concurrent clients (YCSB threads);
	// default 1.
	Workers int
	// Seed makes the run deterministic; 0 means seed 1.
	Seed int64
	// Batch groups each worker's reads and writes, buffered separately,
	// into batch calls of this size, quantifying how much of the paper's
	// 2–5× per-operation compliance overhead amortises away. The flushing
	// operation carries the whole batch's latency, so per-op histograms
	// report amortised cost while throughput stays exact. 0 or 1 issues
	// every operation on its own.
	Batch int
	// Target opens one connection per worker: EmbeddedTarget or SDKTarget.
	Target func(worker int) (Target, error)
}

func (c *YCSBConfig) defaults() error {
	if c.Target == nil {
		return errors.New("ycsb: no target")
	}
	c.ValueSize = cmp.Or(c.ValueSize, 1000)
	c.Seed = cmp.Or(c.Seed, 1)
	c.Batch = max(c.Batch, 1)
	return nil
}

// Load runs the load phase: RecordCount sequential inserts split across
// workers. It corresponds to Figure 1's "Load-A" and "Load-E" bars.
func Load(cfg YCSBConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	return timedLoop(cfg.Workload.Name+"/load", cfg.RecordCount, cfg.Workers, func(w int) (worker, error) {
		return newYCSBWorker(cfg, w, cfg.Seed+int64(w), nil, nil)
	})
}

// Run executes the run phase: OperationCount operations drawn from the
// workload's mix and key distribution.
func Run(cfg YCSBConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}
	var chooser Growable
	switch cfg.Workload.RequestDistribution {
	case DistUniform:
		chooser = NewUniform(cfg.RecordCount)
	case DistLatest:
		chooser = NewLatest(cfg.RecordCount)
	default:
		chooser = NewScrambledZipfian(cfg.RecordCount)
	}
	insertSeq := new(atomic.Int64)
	insertSeq.Store(cfg.RecordCount)
	return timedLoop(cfg.Workload.Name+"/run", cfg.OperationCount, cfg.Workers, func(w int) (worker, error) {
		return newYCSBWorker(cfg, w, cfg.Seed*7919+int64(w), chooser, insertSeq)
	})
}

// ycsbWorker is one YCSB client thread. Without a chooser it runs the
// load phase: draw i inserts record i.
type ycsbWorker struct {
	t         Target
	batch     int
	w         Workload
	rng       *rand.Rand
	val       []byte
	chooser   Growable
	insertSeq *atomic.Int64

	op  OpType
	key string
	n   int // scan length

	rkeys, wkeys []string
	wvals        [][]byte
}

func newYCSBWorker(cfg YCSBConfig, w int, seed int64, chooser Growable, insertSeq *atomic.Int64) (*ycsbWorker, error) {
	t, err := cfg.Target(w)
	if err != nil {
		return nil, err
	}
	return &ycsbWorker{
		t: t, batch: cfg.Batch, w: cfg.Workload,
		rng: rand.New(rand.NewSource(seed)), val: make([]byte, cfg.ValueSize),
		chooser: chooser, insertSeq: insertSeq,
	}, nil
}

func (y *ycsbWorker) next(i int64) (string, bool) {
	if y.chooser == nil {
		y.op, y.key = OpInsert, KeyName(i)
		y.rng.Read(y.val)
		return "INSERT", true
	}
	y.op = y.w.chooseOp(y.rng)
	if y.op == OpInsert {
		y.key = KeyName(y.insertSeq.Add(1) - 1)
	} else {
		y.key = KeyName(y.chooser.Next(y.rng))
	}
	if y.op == OpScan {
		y.n = 1 + y.rng.Intn(y.w.MaxScanLength)
	}
	y.rng.Read(y.val[:16]) // cheap per-op variation
	return y.op.String(), true
}

func (y *ycsbWorker) issue() error {
	switch y.op {
	case OpRead:
		return y.read()
	case OpUpdate:
		return y.write()
	case OpInsert:
		err := y.write()
		if err == nil && y.chooser != nil {
			y.chooser.Grow()
		}
		return err
	case OpScan:
		return y.t.scan(y.key, y.n)
	default: // OpReadModifyWrite
		if err := y.read(); err != nil {
			return err
		}
		return y.write()
	}
}

// read buffers the key and issues the buffered reads once Batch wait.
func (y *ycsbWorker) read() error {
	y.rkeys = append(y.rkeys, y.key)
	return y.flushReads(y.batch)
}

// write buffers the pair and issues the buffered writes once Batch wait.
func (y *ycsbWorker) write() error {
	val := y.val
	if y.batch > 1 {
		val = append([]byte(nil), val...) // outlives this draw in the buffer
	}
	y.wkeys, y.wvals = append(y.wkeys, y.key), append(y.wvals, val)
	return y.flushWrites(y.batch)
}

// flushReads issues the buffered reads if at least least are buffered.
func (y *ycsbWorker) flushReads(least int) error {
	if len(y.rkeys) < least {
		return nil
	}
	err := y.t.get(y.rkeys)
	y.rkeys = y.rkeys[:0]
	return err
}

// flushWrites issues the buffered writes if at least least are buffered.
func (y *ycsbWorker) flushWrites(least int) error {
	if len(y.wkeys) < least {
		return nil
	}
	err := y.t.put(y.wkeys, y.wvals)
	y.wkeys, y.wvals = y.wkeys[:0], y.wvals[:0]
	return err
}

// Close flushes both buffers — a failure there is lost writes, not
// cleanup noise — and releases the target.
func (y *ycsbWorker) Close() error {
	return errors.Join(y.flushWrites(1), y.flushReads(1), y.t.Close())
}
