package experiments

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

// Figure2Config parameterises the erasure-delay experiment of §4.3.
type Figure2Config struct {
	// Sizes are the total key counts (the paper sweeps 1k..128k).
	Sizes []int
	// ShortFraction of keys expires at ShortTTL (paper: 20% at 5 min);
	// the rest at LongTTL (paper: 5 days).
	ShortFraction float64
	ShortTTL      time.Duration
	LongTTL       time.Duration
	// Seed fixes the engine's sampling RNG.
	Seed int64
	// MaxCycles caps the simulation as a safety net.
	MaxCycles int
}

func (c *Figure2Config) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}
	}
	c.ShortFraction = cmp.Or(c.ShortFraction, 0.2)
	c.ShortTTL = cmp.Or(c.ShortTTL, 5*time.Minute)
	c.LongTTL = cmp.Or(c.LongTTL, 5*24*time.Hour)
	c.Seed = cmp.Or(c.Seed, 1)
	c.MaxCycles = cmp.Or(c.MaxCycles, 50_000_000)
}

// Figure2Row is one x position of Figure 2.
type Figure2Row struct {
	// TotalKeys is the datastore size.
	TotalKeys int
	// ExpiredKeys is how many keys were due (≈20% of total).
	ExpiredKeys int
	// LazyEraseDelay is the simulated time Redis's probabilistic cycle
	// took to erase every expired key past its TTL (the paper's red
	// annotations: 41 s at 1k up to 10,728 s at 128k).
	LazyEraseDelay time.Duration
	// LazyCycles is the number of 100 ms cycles that took.
	LazyCycles int
	// IndexEraseWall is the measured wall-clock time of one compliant
	// cycle over the deadline index, which erases every expired key
	// (the paper's fast active expiry claims sub-second at every size).
	IndexEraseWall time.Duration
}

// Figure2 reproduces Figure 2: how long expired keys linger under Redis's
// lazy probabilistic expiry versus fast active expiry, here the compliant
// store's deadline-heap cycle. The probabilistic cycle runs against a
// virtual clock — its erasure delay is cycle-count × 100 ms, a
// deterministic function of the sampling process, so simulated time
// reproduces the paper's hours-long delays in milliseconds of wall time.
// The heap cycle is measured in real wall time since its claim
// ("sub-second") is about actual work done.
func Figure2(cfg Figure2Config) ([]Figure2Row, error) {
	cfg.defaults()
	rows := make([]Figure2Row, 0, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		row, err := figure2Point(n, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func figure2Point(n int, cfg Figure2Config) (Figure2Row, error) {
	row := Figure2Row{TotalKeys: n}

	// --- lazy probabilistic (unmodified Redis), simulated time ---
	{
		vc := clock.NewVirtual(time.Unix(0, 0))
		db := store.New(store.Options{Clock: vc, Seed: cfg.Seed, Strategy: store.ExpiryLazyProbabilistic})
		row.ExpiredKeys = populateFig2(db, n, cfg)
		vc.Advance(cfg.ShortTTL) // all short-term keys are now due
		cycles := 0
		// ExpiredCount is O(1); every due key can only be reclaimed by the
		// cycle itself here (no client accesses), so the run is complete
		// when the counter reaches the due population.
		due := uint64(row.ExpiredKeys)
		for db.ExpiredCount() < due {
			vc.Advance(store.ActiveExpireCyclePeriod)
			db.ActiveExpireCycle()
			cycles++
			if cycles > cfg.MaxCycles {
				return row, fmt.Errorf("experiments: fig2 n=%d exceeded %d cycles", n, cfg.MaxCycles)
			}
		}
		row.LazyCycles = cycles
		row.LazyEraseDelay = time.Duration(cycles) * store.ActiveExpireCyclePeriod
	}

	// --- deadline heap (the compliant cycle), wall time ---
	took, err := indexErase(n, cfg)
	row.IndexEraseWall = took
	return row, err
}

// indexErase populates n keys of the Figure 2 mix, lets the short-lived
// ones fall due, and times the one heap cycle that must erase them all.
func indexErase(n int, cfg Figure2Config) (time.Duration, error) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	db := store.New(store.Options{Clock: vc, Seed: cfg.Seed, Strategy: store.ExpiryHeap})
	populateFig2(db, n, cfg)
	vc.Advance(cfg.ShortTTL)
	t0 := time.Now()
	db.ActiveExpireCycle()
	took := time.Since(t0)
	if left := db.ExpiredUnreclaimed(); left != 0 {
		return took, fmt.Errorf("experiments: heap cycle left %d expired keys at n=%d", left, n)
	}
	return took, nil
}

func populateFig2(db *store.DB, n int, cfg Figure2Config) (short int) {
	mod := int(1 / cfg.ShortFraction) // 20% → every 5th key
	if mod < 1 {
		mod = 1
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user%08d", i)
		if i%mod == 0 {
			db.SetEX(key, []byte("payload"), cfg.ShortTTL)
			short++
		} else {
			db.SetEX(key, []byte("payload"), cfg.LongTTL)
		}
	}
	return short
}

// FormatFigure2 renders rows next to the paper's reported numbers.
func FormatFigure2(rows []Figure2Row) string {
	// The paper's measured delays (seconds) for 1k..128k.
	paper := map[int]int{
		1000: 41, 2000: 94, 4000: 256, 8000: 511,
		16000: 1090, 32000: 2228, 64000: 4830, 128000: 10728,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-16s %-12s %-12s %s\n",
		"TotalKeys", "Expired", "Lazydelay(sim)", "LazyCycles", "ExpiryHeap", "Paper(s)")
	for _, r := range rows {
		paperStr := "-"
		if s, ok := paper[r.TotalKeys]; ok {
			paperStr = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(&b, "%-10d %-9d %-16s %-12d %-12s %s\n",
			r.TotalKeys, r.ExpiredKeys,
			r.LazyEraseDelay.Round(100*time.Millisecond),
			r.LazyCycles,
			r.IndexEraseWall.Round(time.Microsecond),
			paperStr)
	}
	return b.String()
}

// FastExpirySweep verifies the paper's §4.3 claim that fast active expiry,
// here the compliant heap cycle, erases all expired keys with sub-second
// latency for datastores of up to 1M keys. It returns the wall time per
// size.
func FastExpirySweep(sizes []int, seed int64) (map[int]time.Duration, error) {
	if len(sizes) == 0 {
		sizes = []int{100_000, 250_000, 500_000, 1_000_000}
	}
	cfg := Figure2Config{Seed: seed}
	cfg.defaults()
	out := make(map[int]time.Duration, len(sizes))
	for _, n := range sizes {
		took, err := indexErase(n, cfg)
		if err != nil {
			return nil, err
		}
		out[n] = took
	}
	return out, nil
}
