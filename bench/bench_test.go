package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {25, 20}, {90, 46}, {100, 50}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarizeIsSegmentMedian(t *testing.T) {
	got := summarize([]float64{5, 1, math.NaN(), 9, 3})
	if got != (summary{1, 4, 9}) {
		t.Errorf("summarize = %+v, want {1 4 9}", got)
	}
	if got := summarize([]float64{7, 2, 4, 9, 3}); got.Median != 4 {
		t.Errorf("median of five = %v, want 4", got.Median)
	}
	if got := summarize([]float64{math.NaN()}); !math.IsNaN(got.Median) {
		t.Errorf("all-NaN summary = %+v, want NaN", got)
	}
}

// The acceptance rule is stated in Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v, want [2.75 5.5 8.25]", got)
	}
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles(1,2) = %v, want [0.75 1.5 2.25]", got)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(100)
		for c := 0; c < numClients; c++ {
			a := sequenceHash(w.gen(newDataset(7, w.records, w.owners), c), 5000)
			b := sequenceHash(w.gen(newDataset(7, w.records, w.owners), c), 5000)
			other := sequenceHash(w.gen(newDataset(8, w.records, w.owners), c), 5000)
			if a != b {
				t.Errorf("%s client %d: same seed gave different operations", w.name, c)
			}
			if a == other {
				t.Errorf("%s client %d: different seeds gave the same operations", w.name, c)
			}
		}
	}
	a, b := newDataset(7, 10, 2), newDataset(8, 10, 2)
	if string(a.values[3]) == string(b.values[3]) {
		t.Error("values do not depend on the seed")
	}
	if string(a.values[3]) != string(a.valueInto(nil, a.keys[3])) || len(a.values[3]) != valueSize {
		t.Error("a value is not a pure function of its key")
	}
}

func TestSpecNamesTheGatedWorkloads(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
		if !w.gated {
			continue
		}
		if i >= len(sp.Workloads) {
			t.Fatalf("%s is gated but missing from BENCHMARK.json", w.name)
		}
		if got := sp.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		i++
	}
	if i != len(sp.Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program gates %d", len(sp.Workloads), i)
	}
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 5, seconds: 0.3, setups: 1, div: 100, tmp: t.TempDir()}
}

// TestSmoke runs every workload at 1/100 size with all its checks: each
// read verified, every erased subject unreadable, and (strict-mixed) every
// record readable after close and replay.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r, err := runE2E(w, smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
		}
		l, err := line(r.Correct, r.Attempted, r.Failed, r.Metrics, sp.EndToEnd)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, m := range l.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.name, name, m.Value)
			}
		}
		if _, erased := r.Extra["erase_p50_us"]; erased != (w.name == "rights-under-write") {
			t.Errorf("%s: erasures measured = %v", w.name, erased)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	outDir = t.TempDir()
	for _, name := range []string{"wire-read", "rights-under-write", "core-mixed"} {
		w, _ := findWorkload(name)
		rc := smokeConfig(t)
		rc.seconds = 1
		r, err := runTraced(w, rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", name, r.Correct, r.Failed)
		}
		l, err := line(r.Correct, r.Attempted, r.Failed, r.Metrics, sp.PerLayer)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for k, m := range l.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", name, k, m.Value)
			}
		}
		var total float64
		for _, row := range r.Table {
			total += row.SelfUs
		}
		if math.Abs(total-r.MeanUs) > 1e-6*r.MeanUs {
			t.Errorf("%s: layer self times sum to %v, end-to-end mean is %v", name, total, r.MeanUs)
		}
		if gdprkv := r.Table[0]; gdprkv.Layer != "gdprkv" || (gdprkv.SelfUs > 0) != w.wire {
			t.Errorf("%s: table starts with %+v; gdprkv is on the path: %v", name, gdprkv, w.wire)
		}
	}
}

// The final checks must fail when the store is wrong, or they check nothing.
func TestFinalChecksCatchWrongAnswers(t *testing.T) {
	w, _ := findWorkload("core-mixed")
	w = w.scaled(100)
	e, err := setup(w, newDataset(1, w.records, w.owners), filepath.Join(t.TempDir(), "env"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.verifyAll(nil); err != nil {
		t.Fatalf("clean store: %v", err)
	}
	if err := e.verifyAll([]string{e.data.owners[0]}); err == nil {
		t.Error("a subject that was never erased passed the erasure check")
	}
	t0 := coreTarget{e.st}
	if err := t0.forget(e.data.owners[1]); err != nil {
		t.Fatal(err)
	}
	if err := e.verifyAll(nil); err == nil {
		t.Error("a store missing records passed the final read-back")
	}
}

func TestLastLine(t *testing.T) {
	out := []byte("table\nmore\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n\n")
	l, err := lastLine(out)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Correct || l.Attempted != 3 || l.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("lastLine = %+v", l)
	}
	if _, err := lastLine([]byte("no result here\n")); err == nil {
		t.Error("lastLine accepted output without a result object")
	}
}
