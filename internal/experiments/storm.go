package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gdprstore/internal/core"
)

// The retention-storm scenario measures storage-limitation enforcement
// under the worst case the paper's §3.1 "timely deletion" requirement
// implies: a large population of records whose retention deadlines all
// land on the same instant. At the deadline the overdue backlog jumps
// from zero to the full population, and the active-expiry machinery works
// it off; the scenario samples retention lag (age of the oldest overdue
// record) and backlog through the decay and reports how long draining
// took — the live counterpart of Figure 2's expiry-lag plot, and exactly
// what the ops server's gdprkv_retention_lag_seconds gauge shows while
// this scenario runs against a server.

// StormConfig parameterises the retention-storm scenario.
type StormConfig struct {
	// Keys is how many records share the common deadline (default 20000).
	Keys int
	// Horizon is how far in the future the shared deadline is placed;
	// population must finish inside it (default 1s).
	Horizon time.Duration
	// Timing selects the embedded store's point on the compliance
	// spectrum. Expiry is the same on both: the compliant store's deadline
	// heap drains the backlog in the first expirer cycle past the deadline.
	Timing core.Timing
	// SampleEvery is the lag-sampling period during the drain
	// (default 25ms).
	SampleEvery time.Duration
	// Timeout bounds the drain wait (default 60s).
	Timeout time.Duration
	// Seed fixes the randomness (0 → 1).
	Seed int64
}

func (c *StormConfig) defaults() {
	c.Keys = cmp.Or(c.Keys, 20000)
	c.Horizon = cmp.Or(c.Horizon, time.Second)
	c.SampleEvery = cmp.Or(c.SampleEvery, 25*time.Millisecond)
	c.Timeout = cmp.Or(c.Timeout, 60*time.Second)
	c.Seed = cmp.Or(c.Seed, 1)
}

// StormSample is one point on the drain curve.
type StormSample struct {
	// At is time since the shared deadline.
	At time.Duration
	// Overdue is the backlog: records past deadline but still present.
	Overdue int
	// Lag is the age of the oldest overdue record.
	Lag time.Duration
}

// StormResult is one retention-storm run's measurements.
type StormResult struct {
	Keys     int
	Timing   core.Timing
	Populate time.Duration
	// PeakOverdue is the largest backlog observed (≈ Keys at the deadline).
	PeakOverdue int
	// PeakLag is the largest retention lag observed before the drain
	// completed.
	PeakLag time.Duration
	// Drain is how long after the deadline the backlog reached zero.
	Drain time.Duration
	// Samples is the observed decay curve.
	Samples []StormSample
	// ExpiredTotal is the store's cumulative expiry counter afterwards.
	ExpiredTotal uint64
	// Drained reports whether the backlog reached zero inside Timeout.
	Drained bool
}

// RunStorm runs the retention-storm scenario against a fresh embedded
// store: populate Keys records that all expire at one instant, then
// sample the retention-lag gauges until enforcement has drained the
// backlog.
func RunStorm(cfg StormConfig) (StormResult, error) {
	cfg.defaults()
	st, err := core.Open(core.Config{
		Compliant:  true,
		Timing:     cfg.Timing,
		Capability: core.CapabilityPartial,
	})
	if err != nil {
		return StormResult{}, err
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	ctl := core.Ctx{Actor: "controller", Purpose: "populate"}
	deadline := time.Now().Add(cfg.Horizon)
	val := make([]byte, recordSize)

	t0 := time.Now()
	const chunk = 512
	for base := 0; base < cfg.Keys; base += chunk {
		n := min(chunk, cfg.Keys-base)
		entries := make([]core.BatchEntry, n)
		for i := range entries {
			rng.Read(val)
			entries[i] = core.BatchEntry{
				Key:   fmt.Sprintf("storm:%07d", base+i),
				Value: append([]byte(nil), val...),
			}
		}
		err := st.PutBatch(ctl, entries, core.PutOptions{
			Owner:    "storm-population",
			Purposes: []string{"billing"},
			ExpireAt: deadline,
			Origin:   "gdprbench-storm",
		})
		if err != nil {
			return StormResult{}, fmt.Errorf("experiments: storm populate: %w", err)
		}
	}
	res := StormResult{Keys: cfg.Keys, Timing: cfg.Timing, Populate: time.Since(t0)}
	if remaining := time.Until(deadline); remaining < 0 {
		return res, fmt.Errorf("experiments: storm populate overran the %v horizon by %v — raise -storm-horizon",
			cfg.Horizon, -remaining)
	}

	sample := func() StormSample {
		rt := st.RetentionStats()
		s := StormSample{At: time.Since(deadline), Overdue: rt.OverdueRecords, Lag: rt.Lag}
		res.Samples = append(res.Samples, s)
		res.PeakOverdue = max(res.PeakOverdue, s.Overdue)
		res.PeakLag = max(res.PeakLag, s.Lag)
		return s
	}
	// The first sample is taken at the deadline, before the loop starts,
	// so the backlog's rise is on the curve however soon the loop clears
	// it. Then sample the decay until the backlog drains or the timeout
	// lapses.
	time.Sleep(time.Until(deadline))
	sample()
	st.StartExpirer()
	defer st.StopExpirer()
	stop := time.Now().Add(cfg.Timeout)
	for {
		time.Sleep(cfg.SampleEvery)
		if s := sample(); s.Overdue == 0 {
			res.Drained = true
			res.Drain = s.At
			break
		}
		if time.Now().After(stop) {
			res.Drain = time.Since(deadline)
			break
		}
	}
	res.ExpiredTotal = st.RetentionStats().ExpiredTotal
	return res, nil
}

// FormatStorm renders the run as a rise-then-drain summary.
func FormatStorm(r StormResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[gdprbench/retention-storm] keys=%d timing=%s populate=%v\n",
		r.Keys, r.Timing, r.Populate.Round(time.Millisecond))
	fmt.Fprintf(&b, "  peak_overdue=%d peak_lag=%v drain=%v drained=%v expired_total=%d\n",
		r.PeakOverdue, r.PeakLag.Round(time.Millisecond),
		r.Drain.Round(time.Millisecond), r.Drained, r.ExpiredTotal)
	b.WriteString("  t+ms     overdue      lag_ms\n")
	for i, s := range r.Samples {
		// Print at most ~12 curve points: first, last, and every stride-th.
		stride := max(1, len(r.Samples)/10)
		if i != 0 && i != len(r.Samples)-1 && i%stride != 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8d %-12d %d\n",
			s.At.Milliseconds(), s.Overdue, s.Lag.Milliseconds())
	}
	return strings.TrimRight(b.String(), "\n")
}
