package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
)

// TestMaskedAuditRoundTrip drives masked auditing through the full store:
// raw key/owner bytes never reach the on-disk trail, a trail query by the
// real owner returns that owner's records as written, pseudonyms and all,
// and the regulator-facing breach report names the live subject.
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

	// A query by the real owner matches; its records hold pseudonyms.
	recs, err := s.Trail().Query(audit.Filter{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("expected put+get audit records for alice, got %d", len(recs))
	}
	for _, r := range recs {
		if r.Key != s.Trail().Pseudonym(key) || r.Owner != s.Trail().Pseudonym("alice") {
			t.Fatalf("record %+v does not carry alice's pseudonyms", r)
		}
	}

	// The regulator's breach report aggregates by real owner.
	now := vclock(s).Now()
	rep, err := s.Breach(Ctx{Actor: "dpa"}, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AffectedOwners) != 1 || rep.AffectedOwners["alice"] == 0 {
		t.Fatalf("breach report owners %+v, want alice by name", rep.AffectedOwners)
	}

	st := s.Trail().Stats()
	if !st.MaskEnabled || st.Masked == 0 {
		t.Fatalf("masking not active in pipeline stats: %+v", st)
	}
}

// TestMaskedBreachNamesOnlyLiveSubjects: a masked trail keeps no table back
// to the names it masked. After FORGETUSER of alice, BREACH has no "alice"
// and a query by her name returns pseudonyms only; bob, still live, is named
// by BREACH, after a restart too, as the at-rest key keys the mask.
func TestMaskedBreachNamesOnlyLiveSubjects(t *testing.T) {
	for _, envelope := range []bool{false, true} {
		t.Run(fmt.Sprintf("envelope=%v", envelope), func(t *testing.T) {
			dir := t.TempDir()
			vc := clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
			cfg := persistentCfg(filepath.Join(dir, "gdpr.aof"), vc, func(c *Config) {
				c.AuditPath, c.AuditMask = filepath.Join(dir, "audit.log"), true
				c.AtRestKey = bytes.Repeat([]byte{9}, 32)
				if c.Envelope = envelope; envelope {
					c.MasterKey = bytes.Repeat([]byte{8}, 32)
				}
			})
			open := func() *Store {
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				addPrincipals(s)
				s.ACL().AddPrincipal(acl.Principal{ID: "dpa", Role: acl.RoleRegulator})
				return s
			}
			named := func(s *Store, when string) {
				t.Helper()
				now := vc.Now()
				rep, err := s.Breach(Ctx{Actor: "dpa"}, now.Add(-time.Hour), now.Add(time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := rep.AffectedOwners["alice"]; ok || rep.AffectedOwners["bob"] == 0 || len(rep.AffectedOwners) != 2 {
					t.Fatalf("%s: breach report owners %v, want bob and alice's pseudonym", when, rep.AffectedOwners)
				}
				recs, err := s.Trail().Query(audit.Filter{Owner: "alice"})
				if err != nil || len(recs) < 2 {
					t.Fatalf("%s: query by alice returned %d records, %v", when, len(recs), err)
				}
				for _, r := range recs {
					for _, v := range []string{r.Key, r.Owner, r.Detail} {
						if v != "" && !strings.HasPrefix(v, "pii:") {
							t.Fatalf("%s: alice's record %+v carries %q in the clear", when, r, v)
						}
					}
				}
			}

			s := open()
			for _, owner := range []string{"alice", "bob"} {
				if err := s.Put(ctlCtx, "pd:"+owner+":email", []byte(owner+"@x.eu"), PutOptions{Owner: owner}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Forget(ctlCtx, "alice"); err != nil {
				t.Fatal(err)
			}
			s.Maintain()
			named(s, "live")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open()
			defer s.Close()
			named(s, "reopened")
		})
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
