package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdprstore/internal/audit"
)

// TestMaskedAuditRoundTrip drives masked auditing through the full store:
// raw key/owner bytes must never reach the on-disk trail, while the
// regulator-facing breach report and trail queries still resolve real
// subjects through the engine-held reverse table.
func TestMaskedAuditRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	s := newFullStore(t, func(c *Config) {
		c.AuditPath = path
		c.AuditMask = true
	})

	const key = "user:alice:email"
	if err := s.Put(svcCtx, key, []byte("a@x.eu"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(svcCtx, key); err != nil {
		t.Fatal(err)
	}
	if err := s.Trail().Sync(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pii := range [][]byte{[]byte(key), []byte("alice")} {
		if bytes.Contains(raw, pii) {
			t.Fatalf("on-disk audit trail contains raw PII %q", pii)
		}
	}

	// Engine-side query resolves the pseudonyms: filters match real names.
	recs, err := s.Trail().Query(audit.Filter{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("expected put+get audit records for alice, got %d", len(recs))
	}
	for _, r := range recs {
		if r.Key != key || r.Owner != "alice" {
			t.Fatalf("record not unmasked: %+v", r)
		}
	}

	// The regulator's breach report aggregates by real owner.
	now := vclock(s).Now()
	rep, err := s.Breach(Ctx{Actor: "dpa"}, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if rep.AffectedOwners["alice"] == 0 {
		t.Fatalf("breach report lost the unmasked owner: %+v", rep.AffectedOwners)
	}

	st := s.Trail().Stats()
	if !st.MaskEnabled || st.Masked == 0 {
		t.Fatalf("masking not active in pipeline stats: %+v", st)
	}
}

// TestAuditPipelineConfigWiring checks the config knobs reach the
// pipeline: queue depth and back-pressure policy show up in the trail's
// stats.
func TestAuditPipelineConfigWiring(t *testing.T) {
	s := newFullStore(t, func(c *Config) {
		c.AuditQueueDepth = 128
		c.AuditBackpressure = Ptr(audit.BackpressureDrop)
	})
	st := s.Trail().Stats()
	if st.QueueCap != 128 {
		t.Fatalf("queue cap = %d, want 128", st.QueueCap)
	}
	if st.Policy != audit.BackpressureDrop {
		t.Fatalf("policy = %v, want drop", st.Policy)
	}
	// Strict timing still derives every-op durability.
	if st.Mode != audit.SyncEveryOp {
		t.Fatalf("mode = %v, want every-op", st.Mode)
	}
}

// TestAuditBackpressureDefaultsToBlock: shedding evidence must be an
// explicit opt-in on both timings.
func TestAuditBackpressureDefaultsToBlock(t *testing.T) {
	for _, cfg := range []Config{Strict(""), EventualFull("")} {
		n := cfg.normalize()
		if n.auditBP != audit.BackpressureBlock {
			t.Fatalf("%s timing derived policy %v, want block", cfg.Timing, n.auditBP)
		}
	}
}
