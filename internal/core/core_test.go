package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

var (
	ctlCtx = Ctx{Actor: "controller", Purpose: "admin"}
	svcCtx = Ctx{Actor: "svc", Purpose: "billing"}
)

// newFullStore builds a full+real-time compliant store with standard
// principals: a controller, a billing-purpose processor "svc", and data
// subjects alice/bob.
func newFullStore(t *testing.T, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Strict("") // in-memory audit
	cfg.Clock = clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
	cfg.DefaultTTL = 24 * time.Hour
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	s.ACL().AddPrincipal(acl.Principal{ID: "svc", Role: acl.RoleProcessor})
	s.ACL().AddPrincipal(acl.Principal{ID: "alice", Role: acl.RoleSubject})
	s.ACL().AddPrincipal(acl.Principal{ID: "bob", Role: acl.RoleSubject})
	s.ACL().AddPrincipal(acl.Principal{ID: "dpa", Role: acl.RoleRegulator})
	if err := s.ACL().AddGrant(acl.Grant{Principal: "svc", Purpose: "billing"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func vclock(s *Store) *clock.Virtual { return s.Config().Clock.(*clock.Virtual) }

func TestBaselinePutGet(t *testing.T) {
	s, err := Open(Baseline())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(Ctx{}, "k", []byte("v"), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(Ctx{}, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("got %q, %v", v, err)
	}
	if _, err := s.GetUser(Ctx{}, "alice"); !errors.Is(err, ErrNotCompliant) {
		t.Fatalf("GDPR op on baseline: %v", err)
	}
}

func TestPutGetWithCompliance(t *testing.T) {
	s := newFullStore(t, nil)
	err := s.Put(svcCtx, "user:alice:email", []byte("a@x.eu"), PutOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(svcCtx, "user:alice:email")
	if err != nil || string(v) != "a@x.eu" {
		t.Fatalf("got %q, %v", v, err)
	}
}

func TestFullRequiresOwner(t *testing.T) {
	s := newFullStore(t, nil)
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{}); !errors.Is(err, ErrNoOwner) {
		t.Fatalf("err = %v, want ErrNoOwner", err)
	}
}

func TestFullRequiresTTL(t *testing.T) {
	s := newFullStore(t, func(c *Config) { c.DefaultTTL = 0 })
	err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice"})
	if !errors.Is(err, ErrNoTTL) {
		t.Fatalf("err = %v, want ErrNoTTL", err)
	}
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialAllowsNoTTL(t *testing.T) {
	s := newFullStore(t, func(c *Config) {
		c.Capability = CapabilityPartial
		c.DefaultTTL = 0
	})
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatalf("partial compliance rejected TTL-less write: %v", err)
	}
}

func TestPurposeLimitation(t *testing.T) {
	s := newFullStore(t, nil)
	err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"billing"}})
	if err != nil {
		t.Fatal(err)
	}
	// svc reads under billing: allowed.
	if _, err := s.Get(svcCtx, "k"); err != nil {
		t.Fatalf("billing read denied: %v", err)
	}
	// Controller reads under an un-consented purpose: purpose check fires
	// even for the controller (purpose limitation binds the data, not the
	// principal).
	_, err = s.Get(Ctx{Actor: "controller", Purpose: "marketing"}, "k")
	if !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("err = %v, want ErrPurposeDenied", err)
	}
}

func TestACLDenied(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"marketing"}})
	// svc has only a billing grant; reading for marketing must be denied
	// at the ACL layer.
	_, err := s.Get(Ctx{Actor: "svc", Purpose: "marketing"}, "k")
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	// Denials land in the audit trail.
	recs, _ := s.Trail().Query(auditDeniedFilter())
	if len(recs) == 0 {
		t.Fatal("denied access not audited")
	}
}

func TestSubjectReadsOwnData(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"*"}})
	if _, err := s.Get(Ctx{Actor: "alice", Purpose: "*"}, "k"); err != nil {
		t.Fatalf("subject denied own data: %v", err)
	}
	if _, err := s.Get(Ctx{Actor: "bob", Purpose: "*"}, "k"); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob reading alice's data: %v", err)
	}
}

func TestLocationPolicy(t *testing.T) {
	s := newFullStore(t, func(c *Config) {
		c.AllowedLocations = []string{"eu-west", "eu-central"}
		c.DefaultLocation = "eu-west"
	})
	if err := s.Put(ctlCtx, "k1", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatalf("default location rejected: %v", err)
	}
	err := s.Put(ctlCtx, "k2", []byte("v"), PutOptions{Owner: "alice", Location: "us-east"})
	if !errors.Is(err, ErrLocationDenied) {
		t.Fatalf("err = %v, want ErrLocationDenied", err)
	}
}

func TestMetadataReporting(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{
		Owner:              "alice",
		Purposes:           []string{"billing", "analytics"},
		Origin:             "signup-form",
		SharedWith:         []string{"payment-gw"},
		TTL:                time.Hour,
		AutomatedDecisions: true,
	})
	m, err := s.Metadata(ctlCtx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if m.Owner != "alice" || m.Origin != "signup-form" || !m.AutomatedDecisions {
		t.Fatalf("meta = %+v", m)
	}
	if len(m.Purposes) != 2 || len(m.SharedWith) != 1 {
		t.Fatalf("meta lists = %+v", m)
	}
	want := vclock(s).Now().Add(time.Hour)
	if !m.Expiry.Equal(want) {
		t.Fatalf("expiry = %v, want %v", m.Expiry, want)
	}
}

func TestTTLExpiryEndToEnd(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Minute})
	vclock(s).Advance(2 * time.Minute)
	if _, err := s.Get(ctlCtx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired key read: %v", err)
	}
	// The record went with the value.
	if _, err := s.Metadata(ctlCtx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("metadata of an expired key served: %v", err)
	}
}

func TestGetUserAndIndexes(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "a1", []byte("1"), PutOptions{Owner: "alice", Purposes: []string{"billing"}})
	s.Put(ctlCtx, "a2", []byte("2"), PutOptions{Owner: "alice", Purposes: []string{"marketing"}})
	s.Put(ctlCtx, "b1", []byte("3"), PutOptions{Owner: "bob", Purposes: []string{"billing"}})

	recs, err := s.GetUser(ctlCtx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "a1" || recs[1].Key != "a2" {
		t.Fatalf("recs = %+v", recs)
	}
	keys, err := s.KeysByPurpose(ctlCtx, "billing")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a1" || keys[1] != "b1" {
		t.Fatalf("billing keys = %v", keys)
	}
	ok, err := s.OwnerKeys(ctlCtx, "bob")
	if err != nil || len(ok) != 1 || ok[0] != "b1" {
		t.Fatalf("bob keys = %v, %v", ok, err)
	}
}

func TestAccessReport(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "a1", []byte("1"), PutOptions{
		Owner: "alice", Purposes: []string{"billing"},
		SharedWith: []string{"gw"}, TTL: time.Hour,
	})
	s.Put(ctlCtx, "a2", []byte("2"), PutOptions{
		Owner: "alice", Purposes: []string{"analytics"},
		TTL: 2 * time.Hour, AutomatedDecisions: true,
	})
	rep, err := s.Access(Ctx{Actor: "alice"}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordCount != 2 || !rep.AutomatedDecisions {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Purposes) != 2 || len(rep.Recipients) != 1 {
		t.Fatalf("aggregates = %+v", rep)
	}
	if !rep.LatestExpiry.After(rep.EarliestExpiry) {
		t.Fatalf("expiry bounds = %v, %v", rep.EarliestExpiry, rep.LatestExpiry)
	}
}

// TestExportPortability: Article 20's export is JSON that carries each
// record's key, value, owner, purposes and expiry.
func TestExportPortability(t *testing.T) {
	s := newFullStore(t, nil)
	if err := s.Put(ctlCtx, "a1", []byte("v1"), PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Export(Ctx{Actor: "alice"}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Format  string `json:"format"`
		Owner   string `json:"owner"`
		Records []struct {
			Key      string `json:"key"`
			Value    []byte `json:"value"`
			Metadata struct {
				Owner    string    `json:"owner"`
				Purposes []string  `json:"purposes"`
				Expiry   time.Time `json:"expiry"`
			} `json:"metadata"`
		} `json:"records"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.Format != "gdprstore-export/v1" || got.Owner != "alice" || len(got.Records) != 1 {
		t.Fatalf("export = %s", out)
	}
	r, expiry := got.Records[0], vclock(s).Now().Add(time.Hour)
	if r.Key != "a1" || string(r.Value) != "v1" || r.Metadata.Owner != "alice" ||
		!slices.Equal(r.Metadata.Purposes, []string{"billing"}) || !r.Metadata.Expiry.Equal(expiry) {
		t.Fatalf("exported record = %+v; want a1=v1 for alice, [billing], expiring %v", r, expiry)
	}
}

func TestForget(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "a1", []byte("1"), PutOptions{Owner: "alice"})
	s.Put(ctlCtx, "a2", []byte("2"), PutOptions{Owner: "alice"})
	s.Put(ctlCtx, "b1", []byte("3"), PutOptions{Owner: "bob"})
	n, err := s.Forget(Ctx{Actor: "alice"}, "alice")
	if err != nil || n != 2 {
		t.Fatalf("forget n=%d err=%v", n, err)
	}
	if _, err := s.Get(ctlCtx, "a1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("alice's data survived Forget")
	}
	if _, err := s.Get(ctlCtx, "b1"); err != nil {
		t.Fatalf("bob's data collateral damage: %v", err)
	}
	recs, _ := s.GetUser(ctlCtx, "alice")
	if len(recs) != 0 {
		t.Fatal("owner index still lists forgotten records")
	}
}

func TestForgetDeniedForOtherSubject(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "a1", []byte("1"), PutOptions{Owner: "alice"})
	if _, err := s.Forget(Ctx{Actor: "bob"}, "alice"); !errors.Is(err, ErrDenied) {
		t.Fatalf("bob forgetting alice: %v", err)
	}
}

func TestObjection(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "a1", []byte("1"), PutOptions{Owner: "alice", Purposes: []string{"billing", "marketing"}})
	if err := s.Object(Ctx{Actor: "alice"}, "alice", "marketing"); err != nil {
		t.Fatal(err)
	}
	// Existing record: marketing now denied, billing still fine.
	if _, err := s.Get(Ctx{Actor: "controller", Purpose: "marketing"}, "a1"); !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("objected purpose allowed: %v", err)
	}
	if _, err := s.Get(Ctx{Actor: "controller", Purpose: "billing"}, "a1"); err != nil {
		t.Fatalf("non-objected purpose denied: %v", err)
	}
	// Future record: objection applies automatically.
	s.Put(ctlCtx, "a2", []byte("2"), PutOptions{Owner: "alice", Purposes: []string{"marketing"}})
	if _, err := s.Get(Ctx{Actor: "controller", Purpose: "marketing"}, "a2"); !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("standing objection not applied to new record: %v", err)
	}
	// Purpose index respects objections.
	keys, _ := s.KeysByPurpose(ctlCtx, "marketing")
	if len(keys) != 0 {
		t.Fatalf("objected keys still indexed for purpose: %v", keys)
	}
	// Withdraw.
	if err := s.Unobject(Ctx{Actor: "alice"}, "alice", "marketing"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(Ctx{Actor: "controller", Purpose: "marketing"}, "a1"); err != nil {
		t.Fatalf("withdrawn objection still enforced: %v", err)
	}
	if obj := s.Objections("alice"); len(obj) != 0 {
		t.Fatalf("objections = %v", obj)
	}
}

func TestBreachReportACL(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice"})
	from := time.Time{}
	to := vclock(s).Now().Add(time.Hour)
	if _, err := s.Breach(Ctx{Actor: "dpa"}, from, to); err != nil {
		t.Fatalf("regulator denied breach report: %v", err)
	}
	if _, err := s.Breach(Ctx{Actor: "svc"}, from, to); !errors.Is(err, ErrDenied) {
		t.Fatalf("processor allowed breach report: %v", err)
	}
	rep, _ := s.Breach(Ctx{Actor: "controller"}, from, to)
	if rep.AffectedOwners["alice"] == 0 {
		t.Fatalf("report misses alice: %+v", rep)
	}
}

func TestAuditReadsRecorded(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice"})
	s.Get(Ctx{Actor: "controller", Purpose: "admin"}, "k")
	recs, err := s.Trail().Query(auditOpFilter("GET"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("GET audit records = %d, want 1 (strict: every read logged)", len(recs))
	}
}

func TestExpireUpdatesMetadata(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Hour})
	if err := s.Expire(ctlCtx, "k", 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	m, _ := s.Metadata(ctlCtx, "k")
	want := vclock(s).Now().Add(2 * time.Hour)
	if !m.Expiry.Equal(want) {
		t.Fatalf("meta expiry %v, want %v", m.Expiry, want)
	}
	if err := s.Expire(ctlCtx, "missing", time.Hour); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// An Expire journals one record, the engine's EXPIREAT, and returns what
// the journal said about it: a failing AOF fails the Expire.
func TestExpireReturnsJournalError(t *testing.T) {
	s := newFullStore(t, nil)
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	full := errors.New("no space left on device")
	var names []string
	s.Engine().SetJournal(store.JournalFunc(func(name string, _ ...[]byte) error {
		names = append(names, name)
		return full
	}))
	if err := s.Expire(ctlCtx, "k", 2*time.Hour); !errors.Is(err, full) {
		t.Fatalf("Expire with a failing journal = %v, want its error", err)
	}
	if len(names) != 1 || names[0] != "EXPIREAT" {
		t.Fatalf("Expire journaled %v, want one EXPIREAT", names)
	}
}

// Expiry drops a key's record with its value, and the indexes with it: no
// maintenance pass in between, and nothing for one to prune.
func TestExpiryDropsRecord(t *testing.T) {
	s := newFullStore(t, nil)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute})
	if s.MetaCount() != 1 {
		t.Fatalf("meta count after the write = %d", s.MetaCount())
	}
	vclock(s).Advance(2 * time.Minute)
	s.Engine().ActiveExpireCycle() // compliant: reaps every due key
	if n := s.MetaCount(); n != 0 {
		t.Fatalf("meta count after expiry = %d", n)
	}
	if keys := s.ix.ownerKeys(nil, "alice"); len(keys) != 0 {
		t.Fatalf("owner index after expiry: %v", keys)
	}
	if keys := s.ix.purposeKeys("billing"); len(keys) != 0 {
		t.Fatalf("purpose index after expiry: %v", keys)
	}
}

func TestTable1Mapping(t *testing.T) {
	if len(Articles) != 13 {
		t.Fatalf("Table 1 has %d rows, want 13", len(Articles))
	}
	feats := map[Feature]bool{}
	for _, a := range Articles {
		for _, f := range a.Features {
			feats[f] = true
		}
	}
	// All six features plus the "All" marker must be exercised.
	if len(feats) != 7 {
		t.Fatalf("features covered = %d (%v), want 7", len(feats), feats)
	}
	for _, a := range Articles {
		if a.Number == "" || a.Name == "" || a.Requirement == "" || len(a.Features) == 0 || len(a.Modules) == 0 {
			t.Fatalf("incomplete article row: %+v", a)
		}
	}
	out := FormatTable1()
	for _, want := range []string{"Right to be forgotten", "Timely deletion", "Monitoring", "33, 34"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("Table 1 output missing %q", want)
		}
	}
}

func TestComplianceSpectrumDefaults(t *testing.T) {
	strict := Strict("").normalize()
	if strict.auditMode.String() != "every-op" || strict.strategy != store.ExpiryHeap || !strict.requireTTL || !strict.enforceACL || !strict.auditReads {
		t.Fatalf("strict defaults wrong: %+v", strict)
	}
	ev := EventualFull("").normalize()
	if ev.auditMode.String() != "batched-1s" {
		t.Fatalf("eventual audit mode = %v", ev.auditMode)
	}
	if ev.strategy != store.ExpiryHeap {
		t.Fatalf("eventual strategy = %v", ev.strategy)
	}
	base := Baseline().normalize()
	if base.Compliant || base.strategy != store.ExpiryLazyProbabilistic {
		t.Fatalf("baseline is compliant or not Redis's sampler: %+v", base)
	}
	if Strict("").Timing.String() != "real-time" || EventualFull("").Timing.String() != "eventual" {
		t.Fatal("timing labels wrong")
	}
	if CapabilityFull.String() != "full" || CapabilityPartial.String() != "partial" {
		t.Fatal("capability labels wrong")
	}
}

// Every call that passes the gate of locks.go is refused once Close has
// begun, and changes nothing.
func TestClosedStoreRejectsOps(t *testing.T) {
	s := newFullStore(t, nil)
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	raw, _ := s.Engine().Get("k")
	s.Close()
	opts := PutOptions{Owner: "alice"}
	meta := &Metadata{Owner: "alice"}
	for name, call := range map[string]func() error{
		"Put":      func() error { return s.Put(ctlCtx, "k", []byte("v"), opts) },
		"PutBatch": func() error { return s.PutBatch(ctlCtx, []BatchEntry{{Key: "k", Value: []byte("v")}}, opts) },
		"Get":      func() error { _, err := s.Get(ctlCtx, "k"); return err },
		"GetBatch": func() error { _, err := s.GetBatch(ctlCtx, []string{"k"}); return err },
		"Delete":   func() error { return s.Delete(ctlCtx, "k") },
		"Expire":   func() error { return s.Expire(ctlCtx, "k", time.Hour) },
		"Metadata": func() error { _, err := s.Metadata(ctlCtx, "k"); return err },
		"GetUser":  func() error { _, err := s.GetUser(ctlCtx, "alice"); return err },
		"Access":   func() error { _, err := s.Access(ctlCtx, "alice"); return err },
		"Export":   func() error { _, err := s.Export(ctlCtx, "alice"); return err },
		"OwnerKeys": func() error {
			_, err := s.OwnerKeys(ctlCtx, "alice")
			return err
		},
		"KeysByPurpose": func() error {
			_, err := s.KeysByPurpose(ctlCtx, "admin")
			return err
		},
		"Forget":           func() error { _, err := s.Forget(ctlCtx, "alice"); return err },
		"Object":           func() error { return s.Object(ctlCtx, "alice", "ads") },
		"Unobject":         func() error { return s.Unobject(ctlCtx, "alice", "ads") },
		"DumpForMigration": func() error { _, _, _, err := s.DumpForMigration("k"); return err },
		"RestoreRecord": func() error {
			return s.RestoreRecord(ctlCtx, [][]byte{[]byte(opRecord), appendMetadata(nil, meta), []byte("k"), []byte("v")}, nil)
		},
		"RestoreRecord raw": func() error {
			return s.RestoreRecord(ctlCtx, [][]byte{[]byte("SET"), []byte("raw"), []byte("v")}, nil)
		},
	} {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
	if removed, changed := s.RemoveMigrated("k", raw); removed || changed {
		t.Errorf("RemoveMigrated after Close = %v, %v", removed, changed)
	}
	if v, ok := s.Engine().Get("k"); !ok || string(v) != string(raw) || s.Engine().Exists("raw") {
		t.Fatal("a call refused after Close changed the engine")
	}
}

// --- helpers ---

// auditFilter aliases audit.Filter to keep test call sites short.
type auditFilter = audit.Filter

func auditDeniedFilter() (f auditFilter) { f.Outcome = audit.OutcomeDenied; return }

func auditOpFilter(op string) (f auditFilter) { f.Op = op; return }

func tempAOF(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "gdpr.aof")
}
