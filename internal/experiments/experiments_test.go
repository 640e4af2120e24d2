package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/core"
)

// TestFigure2Shape asserts the load-bearing claims of Figure 2 at reduced
// scale: (1) the lazy probabilistic erasure delay grows with datastore
// size, (2) it is wildly disproportionate to the work (minutes-hours of
// simulated lag), and (3) fast active expiry, the compliant heap cycle,
// erases everything in sub-second wall time.
func TestFigure2Shape(t *testing.T) {
	rows, err := Figure2(Figure2Config{Sizes: []int{1000, 4000, 16000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].LazyEraseDelay <= rows[i-1].LazyEraseDelay {
			t.Errorf("lazy delay not growing: %d keys → %v, %d keys → %v",
				rows[i-1].TotalKeys, rows[i-1].LazyEraseDelay,
				rows[i].TotalKeys, rows[i].LazyEraseDelay)
		}
	}
	// At 16k keys the paper reports ~18 minutes; our simulation must land
	// in the same order of magnitude (minutes, not seconds).
	if rows[2].LazyEraseDelay < time.Minute {
		t.Errorf("lazy delay at 16k = %v, want minutes of simulated lag", rows[2].LazyEraseDelay)
	}
	for _, r := range rows {
		if r.IndexEraseWall > time.Second {
			t.Errorf("heap cycle at %d keys took %v, want sub-second", r.TotalKeys, r.IndexEraseWall)
		}
		if r.ExpiredKeys != r.TotalKeys/5 {
			t.Errorf("expired fraction at %d = %d, want 20%%", r.TotalKeys, r.ExpiredKeys)
		}
	}
	out := FormatFigure2(rows)
	if !strings.Contains(out, "TotalKeys") {
		t.Fatal("format output broken")
	}
}

func TestFigure2PaperScalePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full 128k point takes a few seconds")
	}
	rows, err := Figure2(Figure2Config{Sizes: []int{128000}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Paper: 10,728 s (~3 h). The exact value depends on RNG; assert the
	// order of magnitude: above 30 minutes of simulated time.
	if r.LazyEraseDelay < 30*time.Minute {
		t.Errorf("128k lazy delay = %v, want hours-scale lag", r.LazyEraseDelay)
	}
	if !raceEnabled && r.IndexEraseWall > time.Second {
		t.Errorf("128k heap cycle = %v, want sub-second", r.IndexEraseWall)
	}
}

func TestFastExpirySweepSubSecondAtMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-key population is slow")
	}
	if raceEnabled {
		t.Skip("race detector slowdown invalidates the wall-clock bound")
	}
	out, err := FastExpirySweep([]int{1_000_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := out[1_000_000]; d > time.Second {
		t.Errorf("1M-key fast expiry took %v, paper claims sub-second", d)
	}
}

func TestFsyncSpectrumShape(t *testing.T) {
	// Each mode's throughput is the median of several spectra, which run
	// the modes in turn: off and everysec do nearly the same work, so one
	// short run of each is the scheduler's (a lone pair has measured
	// everysec 26 % above off).
	const runs = 5
	var thr [3][]float64
	var rows []FsyncRow
	for range runs {
		var err error
		if rows, err = FsyncSpectrum(t.TempDir(), 500, 3000, 2); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i, r := range rows {
			thr[i] = append(thr[i], r.Throughput)
		}
	}
	median := func(xs []float64) float64 { slices.Sort(xs); return xs[len(xs)/2] }
	off, everysec, always := median(thr[0]), median(thr[1]), median(thr[2])
	// §4.1's shape: always << everysec <= off.
	if !(always < everysec && everysec <= off*1.05) {
		t.Errorf("fsync ordering broken: median off=%.0f everysec=%.0f always=%.0f", off, everysec, always)
	}
	// The paper reports ~6x between everysec and always; environments
	// vary, but always must be at least 2x slower.
	if everysec/always < 2 {
		t.Errorf("everysec/always = %.1fx, want >= 2x (paper: ~6x)", everysec/always)
	}
	out := FormatFsync(rows)
	if !strings.Contains(out, "speedup") {
		t.Fatal("format output broken")
	}
}

func TestFigure1SmallRun(t *testing.T) {
	rows, err := Figure1(Figure1Config{
		RecordCount: 300, OperationCount: 1500, Workers: 2, ValueSize: 256,
		Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Figure1Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, setup := range Figure1Setups {
			if r.Throughput[setup] <= 0 {
				t.Errorf("workload %s setup %q throughput missing", r.Workload, setup)
			}
		}
	}
	// Across the read-heavy workloads, synchronous logging must show a
	// substantial hit (paper: drops to ~5%; assert < 70% to be robust to
	// fast disks). Only the aggregate is compared: at 1500 operations one
	// workload's throughput is the scheduler's (AOF-sync has measured
	// 4940 against a baseline of 776 on a loaded box).
	var baseSum, syncSum float64
	for _, r := range rows {
		baseSum += r.Throughput["Unmodified"]
		syncSum += r.Throughput["AOF w/ sync"]
	}
	if syncSum > 0.7*baseSum {
		t.Errorf("AOF-sync aggregate %.0f vs baseline %.0f: logging cost invisible", syncSum, baseSum)
	}
	out := FormatFigure1(rows)
	if !strings.Contains(out, "Load-A") {
		t.Fatal("format output broken")
	}
}

func TestComplianceSpectrumShape(t *testing.T) {
	rows, err := ComplianceSpectrum(t.TempDir(), 400, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	base := rows[0].Throughput
	strict := rows[len(rows)-1] // real-time + full
	if strict.Timing != "real-time" || strict.Capability != "full" {
		t.Fatalf("row order changed: %+v", strict)
	}
	if strict.Throughput >= base {
		t.Errorf("strict compliance (%.0f) not slower than baseline (%.0f)", strict.Throughput, base)
	}
	// Strict must be slower than the eventual corners (allowing 10% noise).
	// Not than real-time/partial: both real-time corners fsync the trail on
	// every audited operation, so which of the two is faster is the disk's
	// call, not the code's.
	for _, r := range rows[1 : len(rows)-1] {
		if r.Timing == "real-time" {
			continue
		}
		if strict.Throughput > r.Throughput*1.1 {
			t.Errorf("strict (%.0f) faster than %s/%s (%.0f)",
				strict.Throughput, r.Timing, r.Capability, r.Throughput)
		}
	}
	out := FormatSpectrum(rows)
	if !strings.Contains(out, "real-time") {
		t.Fatal("format output broken")
	}
}

func TestTLSBandwidthShape(t *testing.T) {
	rows, err := TLSBandwidth(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	direct, tunneled := rows[0].BytesPerSec, rows[1].BytesPerSec
	if direct <= 0 || tunneled <= 0 {
		t.Fatalf("bandwidths: %v", rows)
	}
	// The tunnel adds two proxy hops and TLS; it must not be faster than
	// direct (paper: ~9x slower).
	if tunneled > direct {
		t.Errorf("tunnel (%.0f MB/s) faster than direct (%.0f MB/s)", tunneled/1e6, direct/1e6)
	}
	out := FormatTLSBandwidth(rows)
	if !strings.Contains(out, "reduction") {
		t.Fatal("format output broken")
	}
}

func TestErasureLatencyShape(t *testing.T) {
	rows, err := ErasureLatency(t.TempDir(), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Rows: eventual/no, eventual/backups, realtime/no, realtime/backups.
	evNo, rtNo := rows[0], rows[2]
	if evNo.Timing != core.TimingEventual || rtNo.Timing != core.TimingRealTime {
		t.Fatalf("row order changed: %+v", rows)
	}
	// Real-time Forget pays synchronous compaction: it must be at least
	// 10x slower at the median than eventual Forget.
	if rtNo.Forget.P50 < 10*evNo.Forget.P50 {
		t.Errorf("real-time Forget p50 %v not >> eventual %v",
			rtNo.Forget.P50, evNo.Forget.P50)
	}
	out := FormatErasure(rows)
	if !strings.Contains(out, "real-time") {
		t.Fatal("format output broken")
	}
}

// TestErasureByOwnerSizeShape runs the keys-per-owner cells: every owner's
// records are erased in both modes, and only the shred cells leave dead
// ciphertext for the sweep, which reclaims all of it.
func TestErasureByOwnerSizeShape(t *testing.T) {
	rows, err := ErasureByOwnerSize([]int{4, 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Forget.Count != 3 {
			t.Errorf("%d keys shred=%v: %d forgets timed, want 3", r.KeysPerOwner, r.Shred, r.Forget.Count)
		}
		want := 0
		if r.Shred {
			want = 3 * r.KeysPerOwner
		}
		if r.Reclaimed != want {
			t.Errorf("%d keys shred=%v: sweep reclaimed %d, want %d", r.KeysPerOwner, r.Shred, r.Reclaimed, want)
		}
	}
	out := FormatErasureByOwnerSize(rows)
	for _, want := range []string{"keys-per-owner", "eager", "shred", "sweep"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatErasureByOwnerSize missing %q:\n%s", want, out)
		}
	}
}

// TestRunsRemoveTheirTempDirs points TMPDIR at an empty directory and
// checks a run given no working directory leaves nothing behind: its
// AOF files go to a temporary directory the run removes.
func TestRunsRemoveTheirTempDirs(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if _, err := FsyncSpectrum("", 100, 300, 1); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in $TMPDIR: %s", e.Name())
	}
}
