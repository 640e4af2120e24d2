package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"gdprstore/internal/core"
	"gdprstore/internal/metrics"
)

// The multi-regulation scenario layers a CCPA-style "do not sell"
// objection on top of the GDPR persona machinery, testing the paper's
// observation that purpose-limitation metadata generalises beyond GDPR:
// CCPA §1798.120's opt-out is, mechanically, a standing Art. 21 objection
// against the "sale" processing purpose. The scenario measures a
// processor read mix under three policy regimes — no objections, GDPR
// objections only, GDPR + CCPA do-not-sell — and reports how throughput,
// latency and denial rates move as each regulation layer is added: the
// compliance-overhead delta of supporting a second regulation with the
// same machinery.

// MultiRegConfig parameterises the multi-regulation scenario.
type MultiRegConfig struct {
	// Subjects is the data-subject population (default 300).
	Subjects int
	// RecordsPerSubject is each subject's record count (default 10).
	RecordsPerSubject int
	// Operations is the number of reads per regime (default 20000).
	Operations int
	// GDPRObjectPct is the fraction of subjects filing an Art. 21
	// objection against the "marketing" purpose (default 0.10).
	GDPRObjectPct float64
	// CCPAOptOutPct is the fraction of subjects filing the do-not-sell
	// opt-out, i.e. an objection against the "sale" purpose
	// (default 0.30 — CCPA opt-out rates run far above GDPR objection
	// rates because no justification is required).
	CCPAOptOutPct float64
	// Seed fixes the randomness (0 → 1).
	Seed int64
}

func (c *MultiRegConfig) defaults() {
	c.Subjects = cmp.Or(c.Subjects, 300)
	c.RecordsPerSubject = cmp.Or(c.RecordsPerSubject, 10)
	c.Operations = cmp.Or(c.Operations, 20000)
	c.GDPRObjectPct = cmp.Or(c.GDPRObjectPct, 0.10)
	c.CCPAOptOutPct = cmp.Or(c.CCPAOptOutPct, 0.30)
	c.Seed = cmp.Or(c.Seed, 1)
}

// multiRegPurposes is the purpose vocabulary: "sale" is the CCPA
// dimension, the others are ordinary GDPR processing purposes.
var multiRegPurposes = []string{"billing", "marketing", "sale", "support"}

// MultiRegPoint is one regime's measurements.
type MultiRegPoint struct {
	// Regime is "baseline", "gdpr" or "gdpr+ccpa".
	Regime string
	// Objections is how many standing objections the regime installed.
	Objections int
	// Throughput is reads/sec over the run.
	Throughput float64
	// Read summarises read latency (allowed and denied alike — a denial
	// still costs a metadata check).
	Read metrics.Snapshot
	// Denied counts reads refused by purpose/objection checks; Errors
	// counts everything else.
	Denied int
	Errors int
}

// RunMultiReg measures the read mix under each regime against a fresh
// embedded store per regime (standing objections cannot be unwound
// mid-run, so reuse would leak one regime into the next).
func RunMultiReg(cfg MultiRegConfig) ([]MultiRegPoint, error) {
	cfg.defaults()
	var out []MultiRegPoint
	for _, regime := range []string{"baseline", "gdpr", "gdpr+ccpa"} {
		pt, err := runMultiRegPoint(cfg, regime)
		if err != nil {
			return out, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func runMultiRegPoint(cfg MultiRegConfig, regime string) (MultiRegPoint, error) {
	st, err := core.Open(core.Config{
		Compliant:  true,
		Timing:     core.TimingEventual,
		Capability: core.CapabilityFull, // purpose and objection checks on
		EnforceACL: core.Ptr(false),
		RequireTTL: core.Ptr(false),
	})
	if err != nil {
		return MultiRegPoint{}, err
	}
	defer st.Close()

	pcfg := PersonaConfig{Subjects: cfg.Subjects, RecordsPerSubject: cfg.RecordsPerSubject,
		Seed: cfg.Seed, Purposes: multiRegPurposes}
	if err := Populate(StorePersonas(st), pcfg); err != nil {
		return MultiRegPoint{}, err
	}

	// Install the regime's standing objections. Subjects are chosen
	// deterministically from the front of the population; CCPA opt-outs
	// overlap the GDPR objectors the way real populations do.
	// The GDPR layer objects to "marketing", the CCPA do-not-sell opt-out
	// to "sale".
	pt := MultiRegPoint{Regime: regime}
	for _, layer := range []struct {
		on      bool
		purpose string
		share   float64
	}{
		{regime != "baseline", "marketing", cfg.GDPRObjectPct},
		{regime == "gdpr+ccpa", "sale", cfg.CCPAOptOutPct},
	} {
		for i := 0; layer.on && i < int(float64(cfg.Subjects)*layer.share); i++ {
			owner := SubjectName(i)
			if err := st.Object(core.Ctx{Actor: owner}, owner, layer.purpose); err != nil {
				return pt, fmt.Errorf("experiments: multireg object %s to %s: %w", owner, layer.purpose, err)
			}
			pt.Objections++
		}
	}

	// The read mix: a processor reads random records under the purpose
	// each record was written with — except that a quarter of reads come
	// from the ad-tech path and state "sale" regardless, which is exactly
	// the traffic do-not-sell must block.
	r := &multiRegReader{st: st, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed * 17))}
	res, err := timedLoop("multi-regulation/"+regime, int64(cfg.Operations), 1,
		func(int) (worker, error) { return r, nil })
	if err != nil {
		return pt, err
	}
	pt.Throughput, pt.Read, pt.Denied, pt.Errors = res.Throughput, res.PerOp["READ"], r.denied, int(res.Errors)
	return pt, nil
}

// multiRegReader is the scenario's processor: it counts denials itself,
// so the loop's errors are the non-benign remainder.
type multiRegReader struct {
	st     *core.Store
	cfg    MultiRegConfig
	rng    *rand.Rand
	denied int

	rec     string
	purpose string
}

func (m *multiRegReader) next(int64) (string, bool) {
	subj := m.rng.Intn(m.cfg.Subjects)
	j := m.rng.Intn(m.cfg.RecordsPerSubject)
	m.rec = RecordKey(subj, j)
	m.purpose = multiRegPurposes[j%len(multiRegPurposes)]
	if m.rng.Float64() < 0.25 {
		m.purpose = "sale"
	}
	return "READ", true
}

func (m *multiRegReader) issue() error {
	_, err := m.st.Get(core.Ctx{Actor: "processor", Purpose: m.purpose}, m.rec)
	if errors.Is(err, core.ErrPurposeDenied) {
		m.denied++
		return nil
	}
	return ignoreBenign(err)
}

// FormatMultiReg renders the regime comparison table. The final column is
// the headline: throughput relative to the no-objections baseline.
func FormatMultiReg(points []MultiRegPoint) string {
	var b strings.Builder
	b.WriteString("[gdprbench/multi-regulation] processor reads under layered policy regimes\n")
	fmt.Fprintf(&b, "  %-10s %-11s %12s %10s %10s %8s %10s\n",
		"regime", "objections", "reads/s", "p50", "p99", "denied", "vs-base")
	var base float64
	for _, pt := range points {
		if pt.Regime == "baseline" {
			base = pt.Throughput
		}
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.1f%%", 100*pt.Throughput/base)
		}
		fmt.Fprintf(&b, "  %-10s %-11d %12.0f %10v %10v %8d %10s\n",
			pt.Regime, pt.Objections, pt.Throughput,
			pt.Read.P50, pt.Read.P99, pt.Denied, rel)
	}
	return strings.TrimRight(b.String(), "\n")
}
