package experiments

import (
	"strings"
	"testing"
	"time"

	"gdprstore/internal/core"
)

// Both timings drain: a compliant store's expirer reaps the whole backlog
// in one cycle whatever its timing.
func TestRunStormDrains(t *testing.T) {
	for _, timing := range []core.Timing{core.TimingEventual, core.TimingRealTime} {
		t.Run(timing.String(), func(t *testing.T) {
			res, err := RunStorm(StormConfig{
				Keys:        2000,
				Horizon:     400 * time.Millisecond,
				Timing:      timing,
				SampleEvery: 10 * time.Millisecond,
				Timeout:     30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Drained {
				t.Fatalf("storm did not drain: %+v", res)
			}
			if res.PeakOverdue == 0 {
				t.Error("no overdue backlog observed — storm never happened")
			}
			if res.PeakLag == 0 {
				t.Error("retention lag never rose above zero")
			}
			if res.ExpiredTotal < uint64(res.PeakOverdue) {
				t.Errorf("expired_total=%d < peak backlog %d", res.ExpiredTotal, res.PeakOverdue)
			}
			// The last sample must show the drained state the gauge converges to.
			last := res.Samples[len(res.Samples)-1]
			if last.Overdue != 0 || last.Lag != 0 {
				t.Errorf("final sample not drained: %+v", last)
			}
			out := FormatStorm(res)
			for _, want := range []string{"retention-storm", "peak_overdue=", "drain=", "drained=true"} {
				if !strings.Contains(out, want) {
					t.Errorf("FormatStorm missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunStormPopulateOverrun(t *testing.T) {
	_, err := RunStorm(StormConfig{Keys: 5000, Horizon: time.Nanosecond})
	if err == nil || !strings.Contains(err.Error(), "overran") {
		t.Fatalf("err = %v, want horizon-overrun error", err)
	}
}

func TestRunMultiReg(t *testing.T) {
	points, err := RunMultiReg(MultiRegConfig{
		Subjects:          60,
		RecordsPerSubject: 8,
		Operations:        3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d regimes, want 3", len(points))
	}
	byName := map[string]MultiRegPoint{}
	for _, pt := range points {
		byName[pt.Regime] = pt
	}
	// "sale" reads against non-sale records are denied even at baseline
	// (purpose limitation is GDPR machinery); what the regimes add is
	// objection-driven denial, so denials must strictly rise as layers
	// stack.
	if !(byName["gdpr"].Denied > byName["baseline"].Denied) {
		t.Errorf("gdpr denials (%d) not above baseline (%d)",
			byName["gdpr"].Denied, byName["baseline"].Denied)
	}
	if !(byName["gdpr+ccpa"].Denied > byName["gdpr"].Denied) {
		t.Errorf("gdpr+ccpa denials (%d) not above gdpr (%d)",
			byName["gdpr+ccpa"].Denied, byName["gdpr"].Denied)
	}
	if byName["baseline"].Objections != 0 || byName["gdpr+ccpa"].Objections <= byName["gdpr"].Objections {
		t.Errorf("objection counts wrong: %+v", points)
	}
	for _, pt := range points {
		if pt.Errors != 0 {
			t.Errorf("%s: %d non-benign errors", pt.Regime, pt.Errors)
		}
		if pt.Read.Count == 0 || pt.Throughput <= 0 {
			t.Errorf("%s: empty measurements: %+v", pt.Regime, pt)
		}
	}
	out := FormatMultiReg(points)
	for _, want := range []string{"multi-regulation", "baseline", "gdpr+ccpa", "vs-base"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatMultiReg missing %q:\n%s", want, out)
		}
	}
}

func TestRunBreach(t *testing.T) {
	res, err := RunBreach(BreachConfig{
		Records:  9000,
		Subjects: 50,
		Writers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The full replay covers at least the synthetic trail (the seed puts
	// and live writes are audited on top of it).
	if res.ScanRecords < res.Records {
		t.Errorf("scan saw %d records, want >= %d", res.ScanRecords, res.Records)
	}
	// The window is the middle third: roughly a third of the trail, with
	// the whole subject population affected and some denied attempts.
	if res.WindowRecords < res.Records/4 || res.WindowRecords > res.Records/2 {
		t.Errorf("window records = %d, want ≈ %d", res.WindowRecords, res.Records/3)
	}
	if res.AffectedOwners != res.Subjects {
		t.Errorf("affected subjects = %d, want %d", res.AffectedOwners, res.Subjects)
	}
	if res.Denied == 0 {
		t.Error("no denied operations in the window")
	}
	if !res.Masked {
		t.Error("default run should replay a masked trail")
	}
	out := FormatBreach(res)
	for _, want := range []string{"breach-replay", "full_scan=", "affected_subjects=", "live_writes="} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatBreach missing %q:\n%s", want, out)
		}
	}
}

func TestRunBreachUnmaskedDistinctOwners(t *testing.T) {
	res, err := RunBreach(BreachConfig{Records: 3000, Subjects: 20, Unmasked: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Masked {
		t.Error("Unmasked run reported masked")
	}
	if res.AffectedOwners != 20 {
		t.Errorf("affected subjects = %d, want 20", res.AffectedOwners)
	}
}
