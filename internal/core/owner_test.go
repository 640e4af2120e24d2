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
	"gdprstore/internal/backup"
	"gdprstore/internal/clock"
	"gdprstore/internal/replica"
	"gdprstore/internal/testutil"
)

// TestFullSyncDropsStaleObjection: a replica that applied an objection
// from the stream, then missed its withdrawal, holds after its full sync
// the objections the primary holds, none, so a record either store writes
// next for the subject reads the same on both.
func TestFullSyncDropsStaleObjection(t *testing.T) {
	s := newFullStore(t, nil)
	hub, err := s.EnableStreamReplication(replica.HubOptions{})
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

// TestRestoreRefusesLegacyObjection: a generation an earlier release wrote,
// its objection a GOBJ after the records, is refused before the keyspace is
// touched, with ErrRetiredFormat and the upgrade step (restore it with the
// previous release, which folds the delta into the owner record, and take a
// new generation): the live state stands, and the data dir, the AOF and the
// generations, is left byte for byte as it was.
func TestRestoreRefusesLegacyObjection(t *testing.T) {
	dir, bdir := t.TempDir(), t.TempDir()
	s := newFullStore(t, func(c *Config) { c.AOFPath = filepath.Join(dir, "gdpr.aof") })
	m, err := backup.NewManager(bdir, nil, s.Config().Clock)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBackupManager(m)
	now := vclock(s).Now()
	rec := appendMetadata(nil, &Metadata{
		Owner: "bob", Purposes: []string{"ads", "billing"}, Objections: []string{"ads"},
		Expiry: now.Add(time.Hour), Created: now,
	})
	if _, err := m.Create(func(emit func(string, ...[]byte) error) error {
		return errors.Join(emit(opRecord, rec, []byte("pd:bob"), []byte("bob-data")), emit("GOBJ", []byte("bob"), []byte("ads")))
	}); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s.Object(Ctx{Actor: "bob"}, "bob", "billing"), s.Log().Sync()); err != nil {
		t.Fatal(err)
	}
	before := [2]map[string]string{dirBytes(t, dir), dirBytes(t, bdir)}
	applied, skipped, err := s.RestoreBackup(ctlCtx)
	if !errors.Is(err, ErrRetiredFormat) || applied != 0 || skipped != 0 {
		t.Fatalf("restore applied %d, skipped %d, %v; want ErrRetiredFormat and nothing applied", applied, skipped, err)
	}
	for _, want := range []string{"GOBJ", "previous release", "new one"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("the refusal does not name %q: %v", want, err)
		}
	}
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	if after := [2]map[string]string{dirBytes(t, dir), dirBytes(t, bdir)}; !reflect.DeepEqual(after, before) {
		t.Fatal("a refused restore changed the data dir or the generations")
	}
	if got := s.Objections("bob"); !slices.Equal(got, []string{"billing"}) || s.Exists("pd:bob") {
		t.Fatalf("after the refusal bob objects to %v (want [billing]), pd:bob exists %v", got, s.Exists("pd:bob"))
	}
}

// TestOwnerRecordCutBeforeRestamps: a log cut after an objection's owner
// record and before the GMETAs that restamp the owner's records replays to
// records that object, as the full log does.
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
