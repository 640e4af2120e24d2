package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty histogram count = %d", h.Count())
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Mean() != 100*time.Microsecond {
		t.Fatalf("mean = %v, want 100µs", h.Mean())
	}
	// Quantile is bucket-quantised: accept within one sub-bucket (~3.2%).
	q := h.Quantile(0.5)
	if q < 95*time.Microsecond || q > 105*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈100µs", q)
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	h.Record(1 * time.Millisecond)
	h.Record(9 * time.Millisecond)
	if h.Min() != time.Millisecond {
		t.Fatalf("min = %v, want 1ms", h.Min())
	}
	if h.Max() != 9*time.Millisecond {
		t.Fatalf("max = %v, want 9ms", h.Max())
	}
}

func TestHistogramNegativeCountsAsZero(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Fatalf("min = %v, want 0", h.Min())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against a known uniform distribution, quantile estimates must be
	// within bucket resolution (1/32 ≈ 3.2%) of the exact value.
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	var exact []time.Duration
	for i := 0; i < 100000; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		exact = append(exact, d)
		h.Record(d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := exact[int(q*float64(len(exact)))-1]
		got := h.Quantile(q)
		lo := time.Duration(float64(want) * 0.93)
		hi := time.Duration(float64(want) * 1.07)
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within [%v, %v]", q, got, lo, hi)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: for any set of recorded durations, quantiles are monotonic
	// in q and bounded by [min-bucket, max].
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		for _, s := range samples {
			h.Record(time.Duration(s))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(1) <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Property: bucketLow(bucketIndex(v)) <= v and the gap is within one
	// sub-bucket width.
	f := func(v uint32) bool {
		ns := uint64(v)
		i := bucketIndex(ns)
		low := bucketLow(i)
		if low > ns {
			return false
		}
		// next bucket's low must exceed ns
		if i+1 < bucketCount && bucketLow(i+1) <= ns {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	b.Record(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", a.Count())
	}
	if a.Min() != time.Millisecond {
		t.Fatalf("merged min = %v", a.Min())
	}
	if a.Max() != 5*time.Millisecond {
		t.Fatalf("merged max = %v", a.Max())
	}
	a.Merge(nil) // must not panic
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestPercentilesSorted(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	ps := h.Percentiles(0.99, 0.5, 0.9)
	if len(ps) != 3 {
		t.Fatalf("len = %d", len(ps))
	}
	if !(ps[0] <= ps[1] && ps[1] <= ps[2]) {
		t.Fatalf("percentiles not sorted: %v", ps)
	}
}

func TestOpStats(t *testing.T) {
	s := NewOpStats("READ")
	s.Record(time.Millisecond)
	if s.Hist.Count() != 1 || s.Name != "READ" {
		t.Fatal("OpStats wiring broken")
	}
}
