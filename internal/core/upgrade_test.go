package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
)

// The upgrade fixtures. legacy.aof is a log an earlier release wrote
// (SETEX/MSETEX with JSON GMETA/GMETAB); upgraded.aof and its key file
// upgraded.aof.keys are the previous release's data dir made of it. Each
// release in the chain compacted what the one before it had written: the
// release that moved data keys into the key file compacted an earlier
// COMPACT of legacy.aof, the one that moved standing objections into owner
// records compacted that, the one that moved the erasure into the owner
// record compacted that in turn, and the previous release, which keeps a
// subject's objections in its owner record alone, compacted that last (the
// GKEY records moving into the key file, the GOBJ deltas into owner
// records, bob's GSHRED into his owner record and the objections alice's
// records carried into hers, on the way). upgraded.golden is the state all
// of them stand for, rendered by legacyDump. envelopeGKEYAOF is a log the
// release before the key file wrote
// under legacyCfg, each data key journaled as a GKEY: Puts of pd:alice:1
// "alice-one", pd:bob:1 "bob-one", pd:carol:1 "carol-one" and pd:alice:2
// "alice-two" (purpose billing, TTL 365 days), Forget of bob and of carol,
// Reinstate of carol, a Put of pd:carol:2 "carol-two", Close. Its generator
// was a throwaway test in that release's internal/core that ran exactly
// those calls on Open(legacyCfg(path)).
//
// objectionsGOBJAOF is a log the release before owner records wrote, its
// standing objections journaled as GOBJ/GUNOBJ deltas, under legacyCfg with
// envelope encryption off. Its generator was a throwaway test in that
// release's internal/core that ran, as "controller" with purpose billing:
// Puts of pd:alice:1 "alice-one" (owner alice, purposes billing and
// marketing, TTL 365 days) and pd:bob:1 "bob-one" (owner bob, purpose
// billing, TTL 365 days); Object alice marketing, Object alice ads,
// Unobject alice ads, Object bob billing, Object carol support, Object dave
// ads, Unobject dave ads; a Put of pd:alice:2 "alice-two" as pd:alice:1;
// Close. That release then read Objections alice [marketing], bob
// [billing], carol [support], dave none.
const (
	legacyAOF         = "testdata/legacy.aof"
	upgradedAOF       = "testdata/upgraded.aof"
	upgradedDump      = "testdata/upgraded.golden"
	envelopeGKEYAOF   = "testdata/envelope-gkey.aof"
	objectionsGOBJAOF = "testdata/objections-gobj.aof"
	legacyMasterKey   = "legacy-fixture-master-key-32byte"
)

// legacyCfg is the configuration the fixtures were written under; the clock
// stands where the fixture's last operation left it.
func legacyCfg(path string) Config {
	cfg := EventualFull("")
	cfg.AOFPath = path
	cfg.AOFSync = Ptr(aof.SyncNo)
	cfg.Envelope = true
	cfg.MasterKey = []byte(legacyMasterKey)
	cfg.Clock = clock.NewVirtual(time.Date(2026, 9, 25, 12, 1, 0, 0, time.UTC))
	cfg.DefaultLocation = "eu-west"
	return cfg
}

// legacyDump is crashDump plus what the fixture exercises beyond it.
func legacyDump(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(crashDump(t, s))
	ctx := Ctx{Actor: "controller", Purpose: "billing"}
	for _, owner := range []string{"alice", "bob", "carol", "dave"} {
		recs, err := s.GetUser(ctx, owner)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			m := r.Metadata
			fmt.Fprintf(&b, "user %s %s=%s expiry=%s created=%s origin=%s shared=%v loc=%s auto=%v epoch=%d\n", owner, r.Key, r.Value,
				m.Expiry.UTC().Format(time.RFC3339Nano), m.Created.UTC().Format(time.RFC3339Nano),
				m.Origin, m.SharedWith, m.Location, m.AutomatedDecisions, m.KeyEpoch)
		}
	}
	fmt.Fprintf(&b, "erasure %+v\n", s.ErasureStats().ShreddedOwners)
	return b.String()
}

// TestUpgradedAOFOpens is the upgrade proof: the data dir the previous
// release's COMPACT wrote opens on this one to the same state, values and
// metadata, and its log holds only forms this release's writers emit.
func TestUpgradedAOFOpens(t *testing.T) {
	golden, err := os.ReadFile(upgradedDump)
	if err != nil {
		t.Fatal(err)
	}
	path := tempAOF(t)
	copyFile(t, upgradedAOF, path)
	copyFile(t, upgradedAOF+".keys", path+".keys")
	var names []string
	if _, err := aof.Load(path, nil, func(name string, args [][]byte) error {
		names = append(names, name)
		return checkKept(name, len(args))
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("the upgraded log is empty")
	}
	s, err := Open(legacyCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	s.ACL().AddPrincipal(acl.Principal{ID: "auditor", Role: acl.RoleController})
	if got := legacyDump(t, s); got != string(golden) {
		t.Fatalf("the upgraded log opens to another state\n--- got ---\n%s--- golden ---\n%s", got, golden)
	}
	ctx := Ctx{Actor: "controller", Purpose: "billing"}
	for key, want := range map[string]string{
		"pd:alice:1": "alice-one", "pd:alice:2": "alice-two", "pd:alice:3": "alice-three",
		"pd:carol:1": "carol-one", "pd:carol:3": "carol-three", "pd:dave:2": "dave-new",
	} {
		if v, err := s.Get(ctx, key); err != nil || string(v) != want {
			t.Fatalf("%s = %q, %v; want %q", key, v, err, want)
		}
	}
	for _, key := range []string{"pd:bob:1", "pd:bob:2", "pd:dave:1", "pd:carol:2"} {
		if _, err := s.Get(ctx, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("erased or deleted %s reads %v", key, err)
		}
	}
	if m, err := s.Metadata(ctx, "pd:alice:3"); err != nil || !reflect.DeepEqual(m.Objections, []string{"support"}) {
		t.Fatalf("standing objection not on pd:alice:3: %+v, %v", m, err)
	}
}

// TestEnvelopeGKEYRefused: an AOF that journaled its data keys as GKEY is
// refused at its first GKEY, with an error that names the file, the record,
// the form and the upgrade step (the previous release moves the keys into
// the key file, and its COMPACT drops them from the log); the data dir is
// left byte for byte as it was.
func TestEnvelopeGKEYRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gdpr.aof")
	copyFile(t, envelopeGKEYAOF, path)
	before := dirBytes(t, dir)
	s, err := Open(legacyCfg(path))
	if !errors.Is(err, ErrRetiredFormat) || s != nil {
		t.Fatalf("Open = %v, %v; want ErrRetiredFormat", s, err)
	}
	for _, want := range []string{path, "record 0", "GKEY", "previous release", "COMPACT"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("the refusal does not name %q: %v", want, err)
		}
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused Open changed the data dir")
	}
}

// TestLegacyObjectionsRefused: a log an earlier release wrote, its standing
// objections journaled as GOBJ/GUNOBJ deltas, is refused at its first delta
// with ErrRetiredFormat and an error that names the file, the form and the
// upgrade step (the previous release folds each delta into an owner record,
// and its COMPACT leaves the owner records as GREC); the data dir is left
// byte for byte as it was. The replication stream refuses either delta too.
func TestLegacyObjectionsRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gdpr.aof")
	copyFile(t, objectionsGOBJAOF, path)
	cfg := legacyCfg(path)
	cfg.Envelope, cfg.MasterKey = false, nil
	before := dirBytes(t, dir)
	s, err := Open(cfg)
	if !errors.Is(err, ErrRetiredFormat) || s != nil {
		t.Fatalf("Open = %v, %v; want ErrRetiredFormat", s, err)
	}
	for _, want := range []string{path, "GOBJ", "previous release", "COMPACT"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("the refusal does not name %q: %v", want, err)
		}
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused Open changed the data dir")
	}
	r, err := Open(EventualFull(""))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{"GOBJ", "GUNOBJ"} {
		if err := r.ApplyReplicated(name, [][]byte{[]byte("bob"), []byte("ads")}); !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), name) {
			t.Fatalf("the stream applies %s: %v; want ErrRetiredFormat", name, err)
		}
	}
	if got := r.Objections("bob"); got != nil {
		t.Fatalf("a refused delta left bob objecting to %v", got)
	}
}

// dirBytes returns every file of dir by name, for a byte-for-byte
// comparison before and after a refused Open.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestRetiredAOFFormsRefused: replay stops at the first record in a form an
// earlier release wrote, with ErrRetiredFormat and an error that names the
// file, the record, the form and the upgrade step; the data dir is left
// byte for byte as it was. Among them is the erasure mark GSHRED, with or
// without its epoch: the previous release wrote none, and its COMPACT folded
// each one it read into the owner record. The replication stream, a restore
// and RESTOREKEY refuse it too, and apply nothing. The previous release's
// record-level objections are TestRetiredObjectionFormsRefused's.
func TestRetiredAOFFormsRefused(t *testing.T) {
	meta := appendMetadata(nil, &Metadata{Owner: "alice"})
	cases := []struct {
		name string
		args [][]byte
		form string
	}{
		{"GMETAB", [][]byte{meta, []byte("k")}, "GMETAB"},
		{"GMETA", [][]byte{[]byte("k"), []byte(`{"owner":"alice","created":"2026-09-25T12:00:00Z"}`)}, "GMETA"},
		{opKey, [][]byte{[]byte("alice"), []byte("wrapped")}, "GKEY (a data key in the AOF)"},
		{opKey, [][]byte{[]byte("alice"), []byte("wrapped"), []byte("0")}, "GKEY (a data key in the AOF)"},
		{"GSHRED", [][]byte{[]byte("alice")}, "GSHRED"},
		{"GSHRED", [][]byte{[]byte("alice"), []byte("1")}, "GSHRED"},
		{"GREINST", [][]byte{[]byte("alice")}, "GREINST"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := EventualFull(filepath.Join(dir, "audit.log"))
			cfg.AOFPath = filepath.Join(dir, "store.aof")
			cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{6}, 32)
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			addPrincipals(s)
			if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var written int
			if written, err = aof.Load(cfg.AOFPath, nil, func(string, [][]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			l, err := aof.Open(cfg.AOFPath, aof.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(l.Append(c.name, c.args...), l.Append("SET", []byte("after"), []byte("v")), l.Close()); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)
			s, err = Open(cfg)
			if !errors.Is(err, ErrRetiredFormat) || s != nil {
				t.Fatalf("Open = %v, %v; want ErrRetiredFormat", s, err)
			}
			for _, want := range []string{cfg.AOFPath, fmt.Sprintf("record %d", written), c.form, "previous release", "COMPACT"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("the refusal does not name %q: %v", want, err)
				}
			}
			if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused Open changed the data dir")
			}
		})
	}
	// The earlier release's own log is refused at its first record, a GKEY.
	raw, err := os.ReadFile(legacyAOF)
	if err != nil {
		t.Fatal(err)
	}
	path := tempAOF(t)
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(legacyCfg(path)); !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "record 0: core: retired record format: GKEY") {
		t.Fatalf("legacy.aof opens with %v; want its record 0 (GKEY) refused", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatal("a refused Open changed legacy.aof")
	}
	dir := t.TempDir()
	s := newFullStore(t, func(c *Config) {
		c.Envelope, c.MasterKey = true, bytes.Repeat([]byte{6}, 32)
		c.AOFPath = filepath.Join(dir, "gdpr.aof")
	})
	if err := s.Put(ctlCtx, "pd:alice:1", []byte("alice-one"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	args := [][]byte{[]byte("alice"), []byte("1")}
	if err := s.ApplyReplicated("GSHRED", args); !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "GSHRED") {
		t.Fatalf("the stream applies GSHRED: %v; want ErrRetiredFormat", err)
	}
	// GSHRED was never a migration record.
	if err := s.RestoreRecord(ctlCtx, append([][]byte{[]byte("GSHRED")}, args...), nil); err == nil || !strings.Contains(err.Error(), "not a migration record") {
		t.Fatalf("RESTOREKEY of GSHRED: %v", err)
	}
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused GSHRED changed the data dir")
	}
	if s.Erased("alice") {
		t.Fatal("the refused GSHRED erased alice")
	}
	if v, err := s.Get(ctlCtx, "pd:alice:1"); err != nil || string(v) != "alice-one" {
		t.Fatalf("pd:alice:1 = %q, %v after the refusals", v, err)
	}
}

// TestRetiredTrailRefusedAtOpen: a trail an earlier release began is refused
// before the store creates or writes anything, with or without an AOF
// beside it.
func TestRetiredTrailRefusedAtOpen(t *testing.T) {
	lines, err := os.ReadFile("../audit/testdata/legacy-trail.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, withAOF := range []bool{false, true} {
		dir := t.TempDir()
		cfg := EventualFull(filepath.Join(dir, "audit.log"))
		cfg.AOFPath = filepath.Join(dir, "store.aof")
		if withAOF {
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			addPrincipals(s)
			if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(cfg.AuditPath, lines, 0o600); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		if s, err := Open(cfg); !errors.Is(err, audit.ErrRetiredFormat) || s != nil {
			t.Fatalf("AOF %v: Open = %v, %v; want audit.ErrRetiredFormat", withAOF, s, err)
		}
		if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("AOF %v: a refused Open changed the data dir: %d files, had %d", withAOF, len(after), len(before))
		}
	}
}

// TestDecodersRefuseParentJSON: the JSON an earlier release wrote, as a
// journal record's metadata or as a one-argument migration record, is
// refused as retired; the migration error tells the operator to upgrade
// the source.
func TestDecodersRefuseParentJSON(t *testing.T) {
	if _, err := decodeMetadata([]byte(`{"owner":"alice","purposes":["billing"],"created":"2026-09-25T12:00:00Z"}`)); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("JSON metadata: %v", err)
	}
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.RestoreRecord(Ctx{}, [][]byte{[]byte(`{"key":"pd:alice:1","value":"YWxpY2Utb25l","meta":{"owner":"alice"}}`)}, nil)
	if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "upgrade the source node") {
		t.Fatalf("JSON migration record: %v", err)
	}
	if n := s.Engine().RawLen(); n != 0 {
		t.Fatalf("the refused record was stored: %d keys", n)
	}
}

// keptForms is every journal record this release's writers emit to the
// AOF, by name, with the argument counts each takes: the one format
// generation replay, the replication link and a restore accept. The stream
// also carries GKEY.
var keptForms = map[string]func(argc int) bool{
	opRecord: func(n int) bool { return n >= 3 && n%2 == 1 },
	opForget: func(n int) bool { return n == 1 || n == 2 },
	// The engine's own records, as store.DB.Apply takes them.
	"SET":      argc(2),
	"SETEX":    argc(3),
	"DEL":      func(n int) bool { return n >= 1 },
	"EXPIREAT": argc(2),
	"PERSIST":  argc(1),
	"FLUSHALL": argc(0),
}

func argc(want int) func(int) bool { return func(n int) bool { return n == want } }

func checkKept(name string, n int) error {
	if ok := keptForms[name]; ok == nil || !ok(n) {
		return fmt.Errorf("%s with %d args is not a kept form", name, n)
	}
	return nil
}

// TestReplayAcceptsEveryWrittenForm runs every writer, envelope on and
// off, and scans the AOF after each step: every record written is a kept
// form, so none is a wrapped key (GKEY), an objection delta (GOBJ, GUNOBJ)
// or a metadata-only update (GMETA), only an owner record's GREC lists
// objections, and the log replays without error. It pins the
// one-generation rule against the next writer change.
func TestReplayAcceptsEveryWrittenForm(t *testing.T) {
	for _, envelope := range []bool{false, true} {
		t.Run(fmt.Sprintf("envelope=%v", envelope), func(t *testing.T) {
			vc := clock.NewVirtual(time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC))
			cfg := EventualFull("")
			cfg.AOFPath = tempAOF(t)
			cfg.AOFSync = Ptr(aof.SyncNo)
			cfg.Clock = vc
			if envelope {
				cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{8}, 32)
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			addPrincipals(s)
			alice := PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}
			bob := PutOptions{Owner: "bob", Purposes: []string{"billing"}, TTL: time.Hour}
			seen := map[string]bool{}
			steps := []struct {
				name string
				run  func() error
			}{
				{"Put", func() error {
					return errors.Join(s.Put(ctlCtx, "k1", []byte("v"), alice), s.Put(ctlCtx, "kb", []byte("v"), bob))
				}},
				{"PutBatch", func() error {
					return s.PutBatch(ctlCtx, []BatchEntry{{Key: "b1", Value: []byte("v")}, {Key: "b2", Value: []byte("v")}}, alice)
				}},
				{"Expire", func() error { return s.Expire(ctlCtx, "k1", 30*time.Minute) }},
				{"Object/Unobject", func() error {
					return errors.Join(s.Object(ctlCtx, "alice", "ads"), s.Object(ctlCtx, "alice", "tracking"),
						s.Unobject(ctlCtx, "alice", "ads"), s.Object(ctlCtx, "carol", "ads"), s.Unobject(ctlCtx, "carol", "ads"))
				}},
				{"Delete", func() error { return s.Delete(ctlCtx, "b2") }},
				{"Forget", func() error { _, err := s.Forget(ctlCtx, "bob"); return err }},
				{"expiry", func() error {
					short := alice
					short.TTL = time.Second
					err := s.Put(ctlCtx, "short", []byte("v"), short)
					vc.Advance(2 * time.Second)
					s.ExpiryCycle()
					return err
				}},
				{"sweep", func() error { s.DrainErasure(); return nil }},
				{"FLUSHALL", func() error {
					s.FlushAll()
					return s.Put(ctlCtx, "k2", []byte("v"), alice)
				}},
				{"Compact", func() error { return s.Compact(ctlCtx) }},
			}
			for _, step := range steps {
				if err := step.run(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if err := s.Log().Sync(); err != nil {
					t.Fatal(err)
				}
				if _, err := aof.Load(cfg.AOFPath, nil, func(name string, args [][]byte) error {
					seen[name] = true
					if name == opRecord {
						if m, err := decodeMetadata(args[0]); err != nil || (m.Owner != "" && len(m.Objections) > 0) {
							return fmt.Errorf("%s of %q lists objections %v (%v)", name, args[1], m.Objections, err)
						}
					}
					return checkKept(name, len(args))
				}); err != nil {
					t.Fatalf("after %s: %v", step.name, err)
				}
				rcfg := cfg
				rcfg.AOFPath = filepath.Join(t.TempDir(), "replay.aof")
				copyFile(t, cfg.AOFPath, rcfg.AOFPath)
				if envelope {
					copyFile(t, cfg.AOFPath+".keys", rcfg.AOFPath+".keys")
				}
				r, err := Open(rcfg)
				if err != nil {
					t.Fatalf("after %s: replay: %v", step.name, err)
				}
				r.Close()
			}
			for _, name := range []string{opRecord, opForget, "DEL", "EXPIREAT", "FLUSHALL"} {
				if !seen[name] {
					t.Errorf("no step wrote a %s record", name)
				}
			}
		})
	}
}
