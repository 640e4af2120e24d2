package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/core"
)

// The breach-replay scenario measures the regulator persona's worst day:
// reconstructing a breach window from a multi-million-record audit trail
// (Articles 33/34 — notify within 72 hours, tell the affected subjects).
// The trail is durable and, by default, masked (PII pseudonymized at
// append time), so the replay also demonstrates that "who was affected"
// is answerable — as a count of distinct subjects — without unmasking
// anyone. The store stays live throughout: a controller keeps writing
// while the regulator scans, so the numbers include the interference a
// real investigation would see.

// BreachConfig parameterises the breach-replay scenario.
type BreachConfig struct {
	// Records is the synthetic audit-trail size the regulator replays
	// (default 2,000,000 — "multi-million" territory at the default).
	Records int
	// Subjects is the data-subject population referenced by the trail and
	// seeded into the live store (default 10,000).
	Subjects int
	// Actors is the principal population appearing in the trail
	// (default 8).
	Actors int
	// Unmasked disables audit masking; the default (false) replays a
	// pseudonymized trail, the harder and more realistic case.
	Unmasked bool
	// Writers is how many live controller write loops run during the
	// replay (default 1).
	Writers int
	// Seed fixes the randomness (0 → 1).
	Seed int64
}

func (c *BreachConfig) defaults() {
	c.Records = cmp.Or(c.Records, 2_000_000)
	c.Subjects = cmp.Or(c.Subjects, 10_000)
	c.Actors = cmp.Or(c.Actors, 8)
	c.Writers = cmp.Or(c.Writers, 1)
	c.Seed = cmp.Or(c.Seed, 1)
}

// BreachResult is one breach-replay run's measurements.
type BreachResult struct {
	Records  int
	Subjects int
	Masked   bool
	// Append is how long building the synthetic trail took, and its rate.
	Append     time.Duration
	AppendRate float64
	// Scan is the full-trail sequential replay: duration and records/s.
	Scan        time.Duration
	ScanRecords int
	ScanRate    float64
	// Breach is the Art. 33/34 window query: duration plus the report's
	// headline numbers.
	Breach         time.Duration
	WindowRecords  int
	AffectedOwners int
	Denied         int
	// LiveWrites is how many controller writes the store absorbed while
	// the regulator was scanning, and their rate.
	LiveWrites    uint64
	LiveWriteRate float64
}

// RunBreach runs the breach-replay scenario against a fresh embedded
// store with a durable (file-backed) audit trail: seed the subject
// population, append a synthetic multi-million-record trail with a known
// breach window in its middle third, then — under live write traffic —
// replay the full trail and build the breach report for the window.
func RunBreach(cfg BreachConfig) (BreachResult, error) {
	cfg.defaults()
	dir, cleanup, err := WorkDir("", "gdprbench-breach-*")
	if err != nil {
		return BreachResult{}, err
	}
	defer cleanup()

	st, err := core.Open(core.Config{
		Compliant:    true,
		Capability:   core.CapabilityPartial,
		AuditEnabled: true,
		AuditPath:    filepath.Join(dir, "audit.log"),
		AuditMask:    !cfg.Unmasked,
	})
	if err != nil {
		return BreachResult{}, err
	}
	defer st.Close()
	res := BreachResult{Records: cfg.Records, Subjects: cfg.Subjects, Masked: !cfg.Unmasked}

	// Seed the live population: one record per subject.
	ctl := core.Ctx{Actor: "controller", Purpose: "service"}
	for i := 0; i < cfg.Subjects; i++ {
		err := st.Put(ctl, RecordKey(i, 0), []byte("seed"), core.PutOptions{
			Owner: SubjectName(i), Purposes: []string{"service"},
		})
		if err != nil {
			return BreachResult{}, fmt.Errorf("experiments: breach seed: %w", err)
		}
	}

	// Build the synthetic trail. The middle third is the breach window;
	// Sync barriers around its edges pin the window's wall-clock bounds
	// (record timestamps are trail-assigned, and the pipeline is async).
	rng := rand.New(rand.NewSource(cfg.Seed))
	trailOps := []string{"GET", "SET", "GETUSER", "EXPORTUSER", "FORGETUSER"}
	trail := st.Trail()
	third := cfg.Records / 3
	var wFrom, wTo time.Time
	t0 := time.Now()
	for i := 0; i < cfg.Records; i++ {
		switch i {
		case third:
			if err := trail.Sync(); err != nil {
				return res, err
			}
			wFrom = time.Now()
		case 2 * third:
			if err := trail.Sync(); err != nil {
				return res, err
			}
			wTo = time.Now()
		}
		subj := rng.Intn(cfg.Subjects)
		rec := audit.Record{
			Actor:   fmt.Sprintf("actor%02d", rng.Intn(cfg.Actors)),
			Op:      trailOps[rng.Intn(len(trailOps))],
			Key:     RecordKey(subj, rng.Intn(16)),
			Owner:   SubjectName(subj),
			Purpose: "service",
			Outcome: audit.OutcomeOK,
		}
		if rng.Float64() < 0.02 {
			rec.Outcome = audit.OutcomeDenied
		}
		if _, err := trail.Append(rec); err != nil {
			return res, fmt.Errorf("experiments: breach trail append: %w", err)
		}
	}
	if err := trail.Sync(); err != nil {
		return res, err
	}
	res.Append = time.Since(t0)
	res.AppendRate = float64(cfg.Records) / res.Append.Seconds()

	// The store stays live: controllers keep writing while the regulator
	// works. Their writes are audited too — arriving after wTo, they are
	// outside the window and must not distort the report. The loops are
	// paced (a short sleep per write) so they model steady background
	// traffic rather than saturating the host and starving the replay —
	// on a single-core box an unpaced spin loop would do exactly that.
	var writes atomic.Uint64
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() {
		close(stopCh)
		wg.Wait()
	})
	defer stop()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(cfg.Seed + int64(w) + 1))
			val := make([]byte, recordSize)
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				case <-time.After(200 * time.Microsecond):
				}
				wr.Read(val)
				subj := wr.Intn(cfg.Subjects)
				err := st.Put(ctl, RecordKey(subj, 1+i%15), val, core.PutOptions{
					Owner: SubjectName(subj), Purposes: []string{"service"},
				})
				if err == nil {
					writes.Add(1)
				}
			}
		}(w)
	}

	// Full-trail replay: the sequential scan a from-scratch forensic pass
	// pays, served from the durable file.
	t0 = time.Now()
	n := 0
	err = trail.Scan(func(audit.Record) error {
		n++
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("experiments: breach scan: %w", err)
	}
	res.Scan = time.Since(t0)
	res.ScanRecords = n
	res.ScanRate = float64(n) / res.Scan.Seconds()

	// The Art. 33/34 question: who was affected in the window, by whom,
	// and were any of the operations denied attempts.
	t0 = time.Now()
	rep, err := st.Breach(core.Ctx{Actor: "regulator", Purpose: "audit"}, wFrom, wTo)
	if err != nil {
		return res, fmt.Errorf("experiments: breach report: %w", err)
	}
	res.Breach = time.Since(t0)
	res.WindowRecords = rep.Records
	res.AffectedOwners = len(rep.AffectedOwners)
	res.Denied = rep.Denied

	stop()
	res.LiveWrites = writes.Load()
	elapsed := res.Scan + res.Breach
	if elapsed > 0 {
		res.LiveWriteRate = float64(res.LiveWrites) / elapsed.Seconds()
	}
	return res, nil
}

// FormatBreach renders the run as one block per scenario.
func FormatBreach(r BreachResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[gdprbench/breach-replay] records=%d subjects=%d masked=%v\n",
		r.Records, r.Subjects, r.Masked)
	fmt.Fprintf(&b, "  trail_append=%v (%.0f rec/s)\n",
		r.Append.Round(time.Millisecond), r.AppendRate)
	fmt.Fprintf(&b, "  full_scan=%v (%d records, %.0f rec/s)\n",
		r.Scan.Round(time.Millisecond), r.ScanRecords, r.ScanRate)
	fmt.Fprintf(&b, "  breach_window=%v records=%d affected_subjects=%d denied=%d\n",
		r.Breach.Round(time.Millisecond), r.WindowRecords, r.AffectedOwners, r.Denied)
	fmt.Fprintf(&b, "  live_writes=%d (%.0f put/s sustained during the replay)\n",
		r.LiveWrites, r.LiveWriteRate)
	return strings.TrimRight(b.String(), "\n")
}
