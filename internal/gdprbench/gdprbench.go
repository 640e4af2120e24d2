// Package gdprbench implements GDPR-centric benchmark workloads in the
// style of GDPRbench, the follow-up benchmark this paper spawned. Where
// YCSB measures a store's plain data path, these workloads measure the
// GDPR surface itself through four personas:
//
//   - customer (data subject): reads own data, exercises the rights of
//     access (Art. 15), portability (Art. 20), objection (Art. 21) and
//     erasure (Art. 17);
//   - controller: writes personal data with metadata, retunes retention,
//     queries by purpose;
//   - processor: reads personal data under a granted purpose;
//   - regulator: audits — breach reports and metadata inspection.
package gdprbench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/metrics"
)

// Role is a GDPRbench persona.
type Role string

// Personas.
const (
	RoleCustomer   Role = "customer"
	RoleController Role = "controller"
	RoleProcessor  Role = "processor"
	RoleRegulator  Role = "regulator"
)

// Roles lists all personas in benchmark order.
var Roles = []Role{RoleCustomer, RoleController, RoleProcessor, RoleRegulator}

// Op names the GDPR operations measured.
type Op string

// Operations.
const (
	OpReadOwn   Op = "READ-OWN"
	OpUpdateOwn Op = "UPDATE-OWN"
	OpAccess    Op = "GETUSER"
	OpPortab    Op = "EXPORT"
	OpObject    Op = "OBJECT"
	OpErase     Op = "FORGET"
	OpPut       Op = "PUT-META"
	OpRetune    Op = "UPDATE-TTL"
	OpPurposeQ  Op = "KEYS-BY-PURPOSE"
	OpprocRead  Op = "READ-PURPOSE"
	OpBreach    Op = "BREACH-REPORT"
	OpMetaRead  Op = "READ-META"
)

// weightedOp pairs an operation with its share of the mix.
type weightedOp struct {
	op Op
	w  float64
}

// mixes defines each persona's operation mix. Shares follow GDPRbench's
// emphasis: personas mostly perform their primary operation with a tail of
// heavyweight rights operations.
var mixes = map[Role][]weightedOp{
	RoleCustomer: {
		{OpReadOwn, 0.60}, {OpUpdateOwn, 0.20}, {OpAccess, 0.10},
		{OpPortab, 0.05}, {OpObject, 0.04}, {OpErase, 0.01},
	},
	RoleController: {
		{OpPut, 0.60}, {OpRetune, 0.25}, {OpPurposeQ, 0.15},
	},
	RoleProcessor: {
		{OpprocRead, 1.00},
	},
	RoleRegulator: {
		{OpBreach, 0.20}, {OpMetaRead, 0.80},
	},
}

// Config parameterises a persona run.
type Config struct {
	// Role selects the persona.
	Role Role
	// Subjects is the number of data subjects in the population.
	Subjects int
	// RecordsPerSubject is how many keys each subject owns.
	RecordsPerSubject int
	// Operations is the number of operations to run.
	Operations int
	// ValueSize is the payload size in bytes (default 100 — GDPRbench
	// uses small personal records).
	ValueSize int
	// Seed fixes the randomness (0 → 1).
	Seed int64
	// Purposes is the purpose vocabulary (default: billing, analytics,
	// marketing, support).
	Purposes []string
	// TTL is the retention bound written on records (default 24h).
	TTL time.Duration
	// Batch groups data-path operations (reads, writes) into
	// PutBatch/GetBatch calls of this size, amortising the per-operation
	// compliance overhead. 0 or 1 keeps the one-key-at-a-time path; the
	// per-op latency then covers Batch keys per observation.
	Batch int
}

func (c *Config) defaults() {
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Purposes) == 0 {
		c.Purposes = []string{"billing", "analytics", "marketing", "support"}
	}
	if c.TTL <= 0 {
		c.TTL = 24 * time.Hour
	}
}

// SubjectName formats subject i's principal ID.
func SubjectName(i int) string { return fmt.Sprintf("subject%06d", i) }

// RecordKey formats subject i's j-th key. The owner is a cluster hash
// tag, so in cluster mode every record of one subject co-locates on the
// owner's slot — erasure and access stay node-local for the benchmark
// population (embedded mode ignores the braces).
func RecordKey(i, j int) string { return fmt.Sprintf("pd:{%s}:rec%04d", SubjectName(i), j) }

// Result is one persona run's measurements.
type Result struct {
	Role       Role
	Ops        int
	Elapsed    time.Duration
	Throughput float64
	PerOp      map[Op]metrics.Snapshot
	Errors     int
	// Audit snapshots the audit pipeline after the run (nil when auditing
	// is off): queue pressure and shed records are part of the measurement
	// — a high Dropped count means the throughput figure was bought by
	// discarding evidence.
	Audit *audit.Stats
	// OpsObserved is what a mid-run poll of the target server's ops
	// surface saw (nil unless the benchmark ran with -ops-addr): worst
	// erasure/retention lag and audit pressure while this persona was
	// driving load.
	OpsObserved *OpsSample
}

// String renders a summary block.
func (r Result) String() string {
	s := fmt.Sprintf("[gdprbench/%s] ops=%d elapsed=%v throughput=%.0f op/s errors=%d",
		r.Role, r.Ops, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Errors)
	for op, snap := range r.PerOp {
		s += fmt.Sprintf("\n  %-16s %s", op, snap.String())
	}
	if a := r.Audit; a != nil {
		s += fmt.Sprintf("\n  audit: mode=%s policy=%s queue=%d/%d enqueued=%d processed=%d dropped=%d sink_errors=%d syncs=%d",
			a.Mode, a.Policy, a.QueueDepth, a.QueueCap,
			a.Enqueued, a.Processed, a.Dropped, a.SinkErrors, a.Syncs)
	}
	if r.OpsObserved != nil {
		s += "\n  " + r.OpsObserved.String()
	}
	return s
}

// Populate loads the subject population into st using controller identity
// ctl: every subject gets RecordsPerSubject records with purpose metadata
// drawn round-robin from the purpose vocabulary.
func Populate(st *core.Store, ctl core.Ctx, cfg Config) error {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	val := make([]byte, cfg.ValueSize)
	for i := 0; i < cfg.Subjects; i++ {
		owner := SubjectName(i)
		for j := 0; j < cfg.RecordsPerSubject; j++ {
			rng.Read(val)
			purpose := cfg.Purposes[j%len(cfg.Purposes)]
			err := st.Put(ctl, RecordKey(i, j), val, core.PutOptions{
				Owner:    owner,
				Purposes: []string{purpose},
				TTL:      cfg.TTL,
				Origin:   "gdprbench-populate",
			})
			if err != nil {
				return fmt.Errorf("gdprbench: populate %s: %w", RecordKey(i, j), err)
			}
		}
	}
	return nil
}

// Run executes cfg.Operations operations of the persona's mix against st.
// The caller must have installed matching principals:
// subjects as RoleSubject, "controller" as RoleController, "processor"
// with grants for every purpose, and "regulator" as RoleRegulator.
func Run(st *core.Store, cfg Config) (Result, error) {
	cfg.defaults()
	mix, ok := mixes[cfg.Role]
	if !ok {
		return Result{}, fmt.Errorf("gdprbench: unknown role %q", cfg.Role)
	}
	rng := rand.New(rand.NewSource(cfg.Seed * 31))
	hists := make(map[Op]*metrics.Histogram)
	for _, w := range mix {
		hists[w.op] = metrics.NewHistogram()
	}
	val := make([]byte, cfg.ValueSize)
	errs := 0
	erased := make(map[int]bool)

	start := time.Now()
	for n := 0; n < cfg.Operations; n++ {
		op := pick(mix, rng)
		subj := rng.Intn(cfg.Subjects)
		if erased[subj] && (op == OpReadOwn || op == OpUpdateOwn || op == OpErase) {
			// GDPRbench redraws erased subjects for data-path operations.
			for tries := 0; tries < 4 && erased[subj]; tries++ {
				subj = rng.Intn(cfg.Subjects)
			}
			if erased[subj] {
				continue
			}
		}
		owner := SubjectName(subj)
		rec := RecordKey(subj, rng.Intn(cfg.RecordsPerSubject))
		purpose := cfg.Purposes[rng.Intn(len(cfg.Purposes))]

		t0 := time.Now()
		var err error
		switch op {
		case OpReadOwn:
			if cfg.Batch > 1 {
				keys, p := batchKeys(subj, rng.Intn(cfg.RecordsPerSubject), cfg)
				err = firstBatchErr(st.GetBatch(core.Ctx{Actor: owner, Purpose: p}, keys))
			} else {
				_, err = st.Get(core.Ctx{Actor: owner, Purpose: purposeOf(rec, cfg)}, rec)
			}
		case OpUpdateOwn:
			rng.Read(val)
			if cfg.Batch > 1 {
				keys, p := batchKeys(subj, rng.Intn(cfg.RecordsPerSubject), cfg)
				err = st.PutBatch(core.Ctx{Actor: owner, Purpose: p}, batchEntries(keys, val), core.PutOptions{
					Owner: owner, Purposes: []string{p}, TTL: cfg.TTL,
				})
			} else {
				err = st.Put(core.Ctx{Actor: owner, Purpose: purposeOf(rec, cfg)}, rec, val, core.PutOptions{
					Owner: owner, Purposes: []string{purposeOf(rec, cfg)}, TTL: cfg.TTL,
				})
			}
		case OpAccess:
			_, err = st.Access(core.Ctx{Actor: owner}, owner)
		case OpPortab:
			_, err = st.Export(core.Ctx{Actor: owner}, owner)
		case OpObject:
			err = st.Object(core.Ctx{Actor: owner}, owner, purpose)
		case OpErase:
			_, err = st.Forget(core.Ctx{Actor: owner}, owner)
			if err == nil {
				erased[subj] = true
			}
		case OpPut:
			rng.Read(val)
			if cfg.Batch > 1 {
				keys, p := batchKeys(subj, rng.Intn(cfg.RecordsPerSubject), cfg)
				err = st.PutBatch(core.Ctx{Actor: "controller", Purpose: p}, batchEntries(keys, val), core.PutOptions{
					Owner: owner, Purposes: []string{p}, TTL: cfg.TTL,
				})
			} else {
				err = st.Put(core.Ctx{Actor: "controller", Purpose: purpose}, rec, val, core.PutOptions{
					Owner: owner, Purposes: []string{purposeOf(rec, cfg)}, TTL: cfg.TTL,
				})
			}
		case OpRetune:
			err = st.Expire(core.Ctx{Actor: "controller"}, rec, cfg.TTL+time.Duration(rng.Intn(3600))*time.Second)
		case OpPurposeQ:
			_, err = st.KeysByPurpose(core.Ctx{Actor: "controller"}, purpose)
		case OpprocRead:
			if cfg.Batch > 1 {
				keys, p := batchKeys(subj, rng.Intn(cfg.RecordsPerSubject), cfg)
				err = firstBatchErr(st.GetBatch(core.Ctx{Actor: "processor", Purpose: p}, keys))
			} else {
				_, err = st.Get(core.Ctx{Actor: "processor", Purpose: purposeOf(rec, cfg)}, rec)
			}
		case OpBreach:
			_, err = st.Breach(core.Ctx{Actor: "regulator"}, start.Add(-time.Hour), time.Now().Add(time.Hour))
		case OpMetaRead:
			_, err = st.Metadata(core.Ctx{Actor: "regulator"}, rec)
		}
		hists[op].Record(time.Since(t0))
		if err != nil && !isBenign(err) {
			errs++
		}
	}
	elapsed := time.Since(start)

	perOp := make(map[Op]metrics.Snapshot)
	for op, h := range hists {
		if h.Count() > 0 {
			perOp[op] = h.Snapshot()
		}
	}
	res := Result{
		Role: cfg.Role, Ops: cfg.Operations, Elapsed: elapsed,
		Throughput: float64(cfg.Operations) / elapsed.Seconds(),
		PerOp:      perOp, Errors: errs,
	}
	if t := st.Trail(); t != nil {
		st := t.Stats()
		res.Audit = &st
	}
	return res, nil
}

// batchKeys selects cfg.Batch record keys of the subject that share one
// populated purpose (record purposes are round-robin by index, so only
// indices congruent mod len(Purposes) can legally be read in one batch
// under a single declared purpose). Keys repeat when the subject has fewer
// congruent records than the batch size.
func batchKeys(subj, j0 int, cfg Config) ([]string, string) {
	stride := len(cfg.Purposes)
	class := j0 % stride
	members := make([]int, 0, (cfg.RecordsPerSubject+stride-1)/stride)
	for j := class; j < cfg.RecordsPerSubject; j += stride {
		members = append(members, j)
	}
	keys := make([]string, cfg.Batch)
	for i := range keys {
		keys[i] = RecordKey(subj, members[i%len(members)])
	}
	return keys, cfg.Purposes[class]
}

// batchEntries pairs every key with the shared payload.
func batchEntries(keys []string, val []byte) []core.BatchEntry {
	entries := make([]core.BatchEntry, len(keys))
	for i, k := range keys {
		entries[i] = core.BatchEntry{Key: k, Value: val}
	}
	return entries
}

// firstBatchErr reduces a GetBatch result to the first non-benign per-key
// error, matching how the one-at-a-time path reports.
func firstBatchErr(results []core.BatchGetResult, err error) error {
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil && !isBenign(r.Err) {
			return r.Err
		}
	}
	return nil
}

// purposeOf recovers the purpose a record was populated with (round-robin
// by record index), so reads state the right purpose.
func purposeOf(rec string, cfg Config) string {
	var i, j int
	if _, err := fmt.Sscanf(rec, "pd:{subject%06d}:rec%04d", &i, &j); err != nil {
		return cfg.Purposes[0]
	}
	return cfg.Purposes[j%len(cfg.Purposes)]
}

// isBenign filters errors that are expected consequences of the workload
// itself (reads of erased/expired subjects, objected purposes), which
// GDPRbench does not count as failures.
func isBenign(err error) bool {
	return err == nil ||
		errors.Is(err, core.ErrNotFound) ||
		errors.Is(err, core.ErrPurposeDenied) ||
		errors.Is(err, core.ErrErased)
}

func pick(mix []weightedOp, rng *rand.Rand) Op {
	f := rng.Float64()
	for _, w := range mix {
		if f < w.w {
			return w.op
		}
		f -= w.w
	}
	return mix[len(mix)-1].op
}
