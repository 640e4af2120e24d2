package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
	"gdprstore/internal/replica"
	"gdprstore/internal/store"
	"gdprstore/internal/testutil"
)

// TestFullSyncDropsStaleObjection: a replica that applied an objection
// from the stream, then missed its withdrawal, holds after its full sync
// the objections the primary holds, none, so a record either store writes
// next for the subject reads the same on both.
func TestFullSyncDropsStaleObjection(t *testing.T) {
	s := newFullStore(t, nil)
	hub, err := s.EnableStreamReplication()
	if err != nil {
		t.Fatal(err)
	}
	addr := servePSYNC(t, hub, s.StreamSnapshot)
	rcfg := s.Config()
	rcfg.AOFPath = ""
	rs, err := Open(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	rs.ACL().AddPrincipal(acl.Principal{ID: "svc", Role: acl.RoleProcessor})
	if err := rs.ACL().AddGrant(acl.Grant{Principal: "svc", Purpose: "billing"}); err != nil {
		t.Fatal(err)
	}
	r := &recorder{Store: rs}
	follow := func() *replica.Node {
		t.Helper()
		n := replica.DialPrimary(r, addr, replica.NodeOptions{ReconnectMin: 5 * time.Millisecond})
		testutil.Eventually(t, 5*time.Second, 0, func() bool { return len(hub.Links()) == 1 }, "replica never linked")
		return n
	}
	unlink := func(n *replica.Node) {
		t.Helper()
		caughtUp(t, s)
		n.Close()
		testutil.Eventually(t, 5*time.Second, 0, func() bool { return len(hub.Links()) == 0 }, "the link outlived its node")
	}

	n := follow()
	if err := s.Object(Ctx{Actor: "bob"}, "bob", "billing"); err != nil {
		t.Fatal(err)
	}
	unlink(n)
	if got := rs.Objections("bob"); !slices.Equal(got, []string{"billing"}) {
		t.Fatalf("the replica applied objections %v, want [billing]", got)
	}
	if err := s.Unobject(Ctx{Actor: "bob"}, "bob", "billing"); err != nil {
		t.Fatal(err)
	}
	r.names = nil
	unlink(follow()) // a new node has no offset to resume from: a full sync
	if !slices.Contains(r.names, "FLUSHALL") {
		t.Fatalf("the relink applied %v, not a full sync", r.names)
	}
	if p, got := s.Objections("bob"), rs.Objections("bob"); !slices.Equal(got, p) {
		t.Fatalf("after the full sync the replica objects to %v, the primary to %v", got, p)
	}
	// The replica, promoted, and the primary each write bob a new record.
	for _, st := range []*Store{s, rs} {
		if err := st.Put(ctlCtx, "pd:bob:new", []byte("v"), PutOptions{Owner: "bob", Purposes: []string{"billing"}}); err != nil {
			t.Fatal(err)
		}
	}
	_, perr := s.Get(svcCtx, "pd:bob:new")
	_, rerr := rs.Get(svcCtx, "pd:bob:new")
	if perr != nil || rerr != nil {
		t.Fatalf("billing read of bob's new record: primary %v, replica %v", perr, rerr)
	}
}

// TestObjectionWithoutRecords: a subject with a standing objection and no
// record keeps it across Close and reopen and across Compact, and no owner
// index, rights read or record count sees the owner record that holds it.
func TestObjectionWithoutRecords(t *testing.T) {
	path := tempAOF(t)
	cfg := persistentCfg(path, clock.NewVirtual(time.Unix(1_000_000, 0)), nil)
	open := func() *Store {
		t.Helper()
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addPrincipals(s)
		return s
	}
	check := func(s *Store, when string) {
		t.Helper()
		if got := s.Objections("carol"); !slices.Equal(got, []string{"ads"}) {
			t.Fatalf("%s: carol objects to %v, want [ads]", when, got)
		}
		if recs, err := s.GetUser(ctlCtx, "carol"); err != nil || len(recs) != 0 || s.MetaCount() != 0 {
			t.Fatalf("%s: carol's rights read sees %d records (%v), the owner index %d", when, len(recs), err, s.MetaCount())
		}
	}
	s := open()
	if err := s.Object(ctlCtx, "carol", "ads"); err != nil {
		t.Fatal(err)
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	check(s, "reopened")
	if err := errors.Join(s.Compact(ctlCtx), s.Close()); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	check(s, "compacted")
	if err := s.Put(ctlCtx, "pd:carol", []byte("v"), PutOptions{Owner: "carol", Purposes: []string{"ads", "billing"}}); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Metadata(ctlCtx, "pd:carol"); err != nil || !slices.Equal(m.Objections, []string{"ads"}) {
		t.Fatalf("carol's first record objects to %v, %v; want [ads]", m.Objections, err)
	}
}

// TestOwnerKeyReserved: no data-path call can name an owner record's key
// (a batch's later keys are refused at the wire:
// TestOwnerRecordOffTheKeyspace), and keyspace listings do not show it.
func TestOwnerKeyReserved(t *testing.T) {
	s := newFullStore(t, nil)
	if err := s.Object(Ctx{Actor: "bob"}, "bob", "ads"); err != nil {
		t.Fatal(err)
	}
	k := ownerKeyPrefix + "{bob}"
	if !s.Engine().Exists(k) {
		t.Fatalf("no owner record under %q", k)
	}
	opts := PutOptions{Owner: "bob", Purposes: []string{"billing"}}
	meta := appendMetadata(nil, &Metadata{Owner: "bob", Purposes: []string{"billing"}})
	_, getErr := s.Get(svcCtx, k)
	_, metaErr := s.Metadata(ctlCtx, k)
	for name, err := range map[string]error{
		"Put":           s.Put(ctlCtx, k, []byte("v"), opts),
		"PutBatch":      s.PutBatch(ctlCtx, []BatchEntry{{Key: k, Value: []byte("v")}, {Key: "pd:bob", Value: []byte("v")}}, opts),
		"Get":           getErr,
		"Metadata":      metaErr,
		"Delete":        s.Delete(ctlCtx, k),
		"Expire":        s.Expire(ctlCtx, k, time.Hour),
		"RestoreRecord": s.RestoreRecord(ctlCtx, [][]byte{[]byte(opRecord), meta, []byte(k), []byte("v")}, nil),
	} {
		if !errors.Is(err, ErrReservedKey) {
			t.Errorf("%s of the owner record's key: %v, want ErrReservedKey", name, err)
		}
	}
	if s.KeyVisible(k) {
		t.Error("the owner record's key is visible")
	}
	if got := s.Objections("bob"); !slices.Equal(got, []string{"ads"}) || s.Exists("pd:bob") {
		t.Fatalf("after the refusals bob objects to %v, pd:bob exists %v", got, s.Exists("pd:bob"))
	}
}

// TestObjectionSurvivesForget: an erasure takes the subject's records, not
// the objection, with or without envelope encryption. The subject's next
// record is stamped with it; with envelope encryption the erasure is final
// and refuses that record.
func TestObjectionSurvivesForget(t *testing.T) {
	for _, envelope := range []bool{false, true} {
		t.Run(fmt.Sprintf("envelope=%v", envelope), func(t *testing.T) {
			s := newFullStore(t, func(c *Config) {
				if envelope {
					c.Envelope, c.MasterKey = true, bytes.Repeat([]byte{9}, 32)
				}
			})
			opts := PutOptions{Owner: "bob", Purposes: []string{"ads", "billing"}}
			if err := s.Put(ctlCtx, "pd:bob:1", []byte("v"), opts); err != nil {
				t.Fatal(err)
			}
			if err := s.Object(Ctx{Actor: "bob"}, "bob", "ads"); err != nil {
				t.Fatal(err)
			}
			if n, err := s.Forget(Ctx{Actor: "bob"}, "bob"); err != nil || n != 1 {
				t.Fatalf("Forget = %d, %v", n, err)
			}
			s.Maintain()
			if got := s.Objections("bob"); !slices.Equal(got, []string{"ads"}) {
				t.Fatalf("after the erasure bob objects to %v, want [ads]", got)
			}
			err := s.Put(ctlCtx, "pd:bob:2", []byte("v"), opts)
			if envelope {
				if !errors.Is(err, ErrErased) {
					t.Fatalf("a Put for the erased owner: %v, want ErrErased", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m, err := s.Metadata(ctlCtx, "pd:bob:2"); err != nil || !slices.Equal(m.Objections, []string{"ads"}) {
				t.Fatalf("bob's next record objects to %v, %v; want [ads]", m.Objections, err)
			}
		})
	}
}

// TestOwnerRecordCutBeforeRestamps: a log cut right after an objection's
// owner record replays to records that object, as the full log does: the
// owner record is all an objection journals, and every record reads it.
func TestOwnerRecordCutBeforeRestamps(t *testing.T) {
	path := tempAOF(t)
	cfg := persistentCfg(path, clock.NewVirtual(time.Unix(1_000_000, 0)), nil)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	opts := PutOptions{Owner: "alice", Purposes: []string{"p1", "p2"}}
	for _, k := range []string{"pd:alice:1", "pd:alice:2"} {
		if err := s.Put(ctlCtx, k, []byte("v"), opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(s.Object(ctlCtx, "alice", "p2"), s.Close()); err != nil {
		t.Fatal(err)
	}
	cut := tempAOF(t)
	l, err := aof.Open(cut, aof.Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if _, err := aof.Load(path, nil, func(name string, args [][]byte) error {
		if done {
			return nil
		}
		if name == opRecord {
			_, done = ReservedKey(string(args[1]))
		}
		return l.Append(name, args...)
	}); err != nil || !done {
		t.Fatalf("no owner record in the log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.AOFPath = cut
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	addPrincipals(r)
	for _, k := range []string{"pd:alice:1", "pd:alice:2"} {
		if m, err := r.Metadata(ctlCtx, k); err != nil || !slices.Equal(m.Objections, []string{"p2"}) {
			t.Fatalf("%s replayed from the cut objects to %v, %v; want [p2]", k, m.Objections, err)
		}
	}
}

// TestObjectionJournalsOneRecord: OBJECT and UNOBJECT of a subject holding
// 256 records each journal one record, the owner record's GREC or its DEL,
// and apply to all 256 at once: the records read the owner record.
func TestObjectionJournalsOneRecord(t *testing.T) {
	path := tempAOF(t)
	s, err := Open(persistentCfg(path, clock.NewVirtual(time.Unix(1_000_000, 0)), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	entries := make([]BatchEntry, 256)
	for i := range entries {
		entries[i] = BatchEntry{Key: fmt.Sprintf("pd:alice:%03d", i), Value: []byte("v")}
	}
	if err := s.PutBatch(ctlCtx, entries, PutOptions{Owner: "alice", Purposes: []string{"billing", "ads"}}); err != nil {
		t.Fatal(err)
	}
	journaled := func() int {
		t.Helper()
		if err := s.Log().Sync(); err != nil {
			t.Fatal(err)
		}
		n, err := aof.Load(path, nil, func(string, [][]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	adsRead := Ctx{Actor: "controller", Purpose: "ads"}
	before := journaled()
	for _, step := range []struct {
		name   string
		run    func() error
		denied bool
	}{
		{"OBJECT", func() error { return s.Object(ctlCtx, "alice", "ads") }, true},
		{"UNOBJECT", func() error { return s.Unobject(ctlCtx, "alice", "ads") }, false},
	} {
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		if n := journaled(); n != before+1 {
			t.Fatalf("%s of a subject with 256 records journaled %d records, want 1", step.name, n-before)
		} else {
			before = n
		}
		for _, e := range entries {
			if _, err := s.Get(adsRead, e.Key); errors.Is(err, ErrPurposeDenied) != step.denied {
				t.Fatalf("after %s an ads read of %s: %v", step.name, e.Key, err)
			}
		}
	}
}

// TestOwnerRecordAppliesAlone: applying an owner record's GREC, as replay
// and the stream do, changes no key but the owner record's: every other
// key keeps the very record it held, and the subject's records read the
// objection from the owner record.
func TestOwnerRecordAppliesAlone(t *testing.T) {
	s := newFullStore(t, nil)
	for _, owner := range []string{"alice", "bob"} {
		for i := 0; i < 256; i++ {
			if err := s.Put(ctlCtx, fmt.Sprintf("pd:%s:%03d", owner, i), []byte("v"), PutOptions{Owner: owner, Purposes: []string{"billing"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := map[string]*store.Record{}
	for _, k := range s.Engine().Keys("*") {
		before[k] = s.Engine().RecordOf(k)
	}
	own := appendMetadata(nil, &Metadata{Objections: []string{"billing"}})
	if err := s.applyRecord(opRecord, [][]byte{own, []byte(OwnerKey("alice")), nil}); err != nil {
		t.Fatal(err)
	}
	for k, rec := range before {
		if got := s.Engine().RecordOf(k); got != rec {
			t.Fatalf("applying alice's owner record replaced the record of %s", k)
		}
	}
	if _, err := s.Get(svcCtx, "pd:alice:000"); !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("a billing read of alice's record after her objection: %v", err)
	}
	if _, err := s.Get(svcCtx, "pd:bob:000"); err != nil {
		t.Fatalf("a billing read of bob's record: %v", err)
	}
}

// TestRetiredObjectionFormsRefused: the previous release stamped every
// record with its owner's objections, in its GREC and in a GMETA for each
// record an objection restamped, and its COMPACT folded each one into the
// owner record. Replay, the stream and RESTOREKEY refuse such a record, with or without the rights, and apply nothing of it: its owner
// objects to nothing, its key is not written, and the records already there
// keep their own terms.
func TestRetiredObjectionFormsRefused(t *testing.T) {
	now := time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC) // newFullStore's clock
	purposes := []string{"ads", "billing", "marketing"}
	// A GMETA restamping pd:alice:1 with terms it was never written under,
	// and bob's record as the previous release wrote it.
	gmeta := [][]byte{[]byte("GMETA"), []byte("pd:alice:1"),
		appendMetadata(nil, &Metadata{Owner: "alice", Purposes: []string{"other"}, Objections: []string{"ads"}, Created: now})}
	grec := [][]byte{[]byte(opRecord),
		appendMetadata(nil, &Metadata{Owner: "bob", Purposes: purposes, Objections: []string{"marketing"}, Expiry: now.Add(time.Hour), Created: now}),
		[]byte("pd:bob:1"), []byte("bob-one")}
	forms := map[string]string{"GMETA": "GMETA", opRecord: `GREC of "pd:bob:1" listing objections`}
	unapplied := func(t *testing.T, s *Store, how string) {
		t.Helper()
		if a, b := s.Objections("alice"), s.Objections("bob"); a != nil || b != nil || s.Exists("pd:bob:1") {
			t.Fatalf("%s: alice objects to %v, bob to %v, pd:bob:1 exists %v", how, a, b, s.Exists("pd:bob:1"))
		}
		if m, err := s.Metadata(ctlCtx, "pd:alice:1"); err != nil || !slices.Equal(m.Purposes, purposes) || len(m.Objections) != 0 {
			t.Fatalf("%s: pd:alice:1 holds %+v, %v; want its own terms", how, m, err)
		}
	}
	putAlice := func(t *testing.T, s *Store) {
		t.Helper()
		if err := s.Put(ctlCtx, "pd:alice:1", []byte("alice-one"), PutOptions{Owner: "alice", Purposes: purposes}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("replay", func(t *testing.T) {
		for _, rec := range [][][]byte{gmeta, grec} {
			dir := t.TempDir()
			path := filepath.Join(dir, "gdpr.aof")
			cfg := persistentCfg(path, clock.NewVirtual(now), nil)
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			addPrincipals(s)
			putAlice(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			written, err := aof.Load(path, nil, func(string, [][]byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			appendRecords(t, path, rec)
			before := dirBytes(t, dir)
			name := string(rec[0])
			if s, err = Open(cfg); !errors.Is(err, ErrRetiredFormat) || s != nil {
				t.Fatalf("Open after a %s = %v, %v; want ErrRetiredFormat", name, s, err)
			}
			for _, want := range []string{path, fmt.Sprintf("record %d", written), forms[name]} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("the refusal of a %s does not name %q: %v", name, want, err)
				}
			}
			if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused %s changed the data dir", name)
			}
		}
	})
	t.Run("stream", func(t *testing.T) {
		s := newFullStore(t, nil)
		putAlice(t, s)
		for _, r := range [][][]byte{gmeta, grec} {
			name := string(r[0])
			if err := s.ApplyReplicated(name, r[1:]); !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), forms[name]) {
				t.Fatalf("the stream applies %s: %v; want ErrRetiredFormat", name, err)
			}
		}
		unapplied(t, s, "streamed")
	})
	t.Run("RESTOREKEY", func(t *testing.T) {
		s := newFullStore(t, nil)
		putAlice(t, s)
		for _, ctx := range []Ctx{svcCtx, ctlCtx} {
			if err := s.RestoreRecord(ctx, grec, nil); !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), forms[opRecord]) || !strings.Contains(err.Error(), "upgrade the source node first") {
				t.Fatalf("RESTOREKEY of a record with objections by %s: %v; want ErrRetiredFormat and the upgrade step", ctx.Actor, err)
			}
		}
		// A GMETA was never a migration record.
		if err := s.RestoreRecord(ctlCtx, gmeta, nil); err == nil || !strings.Contains(err.Error(), "not a migration record") {
			t.Fatalf("RESTOREKEY of a GMETA: %v", err)
		}
		unapplied(t, s, "restored by key")
	})
}
