package core

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/backup"
)

// withBackups registers a backup manager over a fresh directory with s.
func withBackups(t *testing.T, s *Store) *backup.Manager {
	t.Helper()
	m, err := backup.NewManager(t.TempDir(), nil, s.Config().Clock)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBackupManager(m)
	return m
}

// backupNames takes a backup of s and lists the record names its generation
// holds, in order.
func backupNames(t *testing.T, s *Store) []string {
	t.Helper()
	mustBackup(t, s)
	var names []string
	if _, err := s.backups.RestoreLatest(func(name string, _ [][]byte) error {
		names = append(names, name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return names
}

func mustBackup(t *testing.T, s *Store) string {
	t.Helper()
	gen, err := s.Backup()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestBackupIsCompliantSnapshot: a generation is the compliance layer's
// snapshot without the keyring, and a restore brings it back through the
// compliance layer: bob's records return with their purposes and his
// objection, held in his owner record; alice's, shredded after the backup,
// stay erased; and the AOF and an attached replica converge on the
// restored state.
func TestBackupIsCompliantSnapshot(t *testing.T) {
	path := tempAOF(t)
	s := newFullStore(t, func(c *Config) {
		c.AOFPath = path
		c.Envelope, c.MasterKey = true, bytes.Repeat([]byte{5}, 32)
	})
	withBackups(t, s)
	rcfg := s.Config()
	rcfg.AOFPath = ""
	r := attachReplica(t, s, rcfg)
	addPrincipals(r.Store)

	s.Put(ctlCtx, "pd:alice", []byte("alice-secret"), PutOptions{Owner: "alice"})
	s.Put(ctlCtx, "pd:bob:1", []byte("bob-one"), PutOptions{Owner: "bob", Purposes: []string{"billing", "marketing"}})
	s.Put(ctlCtx, "pd:bob:2", []byte("bob-two"), PutOptions{Owner: "bob", Purposes: []string{"billing"}})
	if err := s.Object(Ctx{Actor: "bob"}, "bob", "marketing"); err != nil {
		t.Fatal(err)
	}
	names := backupNames(t, s)
	if !slices.Equal(names, []string{opRecord, opRecord, opRecord, opRecord}) {
		t.Fatalf("generation holds %v: want 4 GREC (3 records and bob's owner record), no GOBJ, GKEY or GSHRED", names)
	}

	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	applied, skipped, err := s.RestoreBackup(ctlCtx)
	if err != nil || applied != 3 || skipped != 1 {
		t.Fatalf("restore applied %d, skipped %d, %v; want 3 (bob's records and objection), 1 (alice's)", applied, skipped, err)
	}

	recs, err := s.GetUser(ctlCtx, "bob")
	if err != nil || len(recs) != 2 {
		t.Fatalf("GETUSER bob = %d records, %v", len(recs), err)
	}
	for i, want := range []struct {
		key, value string
		purposes   []string
	}{{"pd:bob:1", "bob-one", []string{"billing", "marketing"}}, {"pd:bob:2", "bob-two", []string{"billing"}}} {
		got := recs[i]
		if got.Key != want.key || string(got.Value) != want.value ||
			!reflect.DeepEqual(got.Metadata.Purposes, want.purposes) ||
			!reflect.DeepEqual(got.Metadata.Objections, []string{"marketing"}) {
			t.Fatalf("restored record %d = %s %q %+v", i, got.Key, got.Value, got.Metadata)
		}
	}
	if recs, err := s.GetUser(ctlCtx, "alice"); err != nil || len(recs) != 0 || s.Exists("pd:alice") {
		t.Fatalf("alice's shredded record came back: %d records, %v", len(recs), err)
	}

	restored := legacyDump(t, s)
	if !strings.Contains(restored, "user bob pd:bob:1=bob-one") {
		t.Fatalf("the restored dump lacks bob's record:\n%s", restored)
	}
	caughtUp(t, s)
	if got := legacyDump(t, r.Store); got != restored {
		t.Fatalf("replica differs from the restored primary\n--- replica ---\n%s--- primary ---\n%s", got, restored)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	addPrincipals(reopened)
	if got := legacyDump(t, reopened); got != restored {
		t.Fatalf("replay differs from the restored store\n--- replay ---\n%s--- restored ---\n%s", got, restored)
	}
}

// TestRestoreKeepsLaterObjection: an objection made after the backup still
// refuses its purpose after the restore.
func TestRestoreKeepsLaterObjection(t *testing.T) {
	s := newFullStore(t, nil)
	withBackups(t, s)
	s.Put(ctlCtx, "pd:bob", []byte("bob-data"), PutOptions{Owner: "bob", Purposes: []string{"billing"}})
	mustBackup(t, s)
	if err := s.Object(Ctx{Actor: "bob"}, "bob", "billing"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RestoreBackup(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(svcCtx, "pd:bob"); !errors.Is(err, ErrPurposeDenied) {
		t.Fatalf("billing read after restore = %v, want the later objection's refusal", err)
	}
}

// TestEventualForgetThenRestoreStaysErased: under eventual timing, a
// restore between Forget and Maintain pays the owed erasure first, so the
// generation taken before the Forget does not bring alice's plaintext back.
func TestEventualForgetThenRestoreStaysErased(t *testing.T) {
	s := newFullStore(t, func(c *Config) { c.Timing = TimingEventual })
	m := withBackups(t, s)
	secret := []byte("alice-plaintext")
	s.Put(ctlCtx, "pd:alice", secret, PutOptions{Owner: "alice"})
	s.Put(ctlCtx, "pd:bob", []byte("bob-data"), PutOptions{Owner: "bob"})
	mustBackup(t, s)
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RestoreBackup(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if s.Exists("pd:alice") {
		t.Fatal("restore resurrected alice's erased record")
	}
	if !s.Exists("pd:bob") {
		t.Fatal("restore lost bob's record")
	}
	gens, _ := m.List()
	for _, g := range gens {
		if raw, _ := os.ReadFile(g); bytes.Contains(raw, secret) {
			t.Fatalf("generation %s still holds alice's plaintext", g)
		}
	}
}

// TestRestoreRefusesKeyMaterial: a generation holding a GKEY is refused
// whole, and the live keyspace is left as it was.
func TestRestoreRefusesKeyMaterial(t *testing.T) {
	s := newFullStore(t, func(c *Config) {
		c.Envelope, c.MasterKey = true, bytes.Repeat([]byte{5}, 32)
	})
	m := withBackups(t, s)
	s.Put(ctlCtx, "pd:bob", []byte("bob-data"), PutOptions{Owner: "bob"})
	before := legacyDump(t, s)
	if _, err := m.Create(func(emit func(string, ...[]byte) error) error {
		if err := emit("SET", []byte("planted"), []byte("v")); err != nil {
			return err
		}
		return emit(opKey, []byte("bob"), bytes.Repeat([]byte{1}, 60), []byte("0"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RestoreBackup(ctlCtx); err == nil {
		t.Fatal("a generation holding a key was restored")
	}
	if got := legacyDump(t, s); got != before || s.Exists("planted") {
		t.Fatalf("refused restore changed the keyspace\n--- after ---\n%s--- before ---\n%s", got, before)
	}
}

// TestRestoreRefusesShortGeneration: a generation that reads short, here
// one cut by its last byte, is refused whole, and the live keyspace is left
// as it was.
func TestRestoreRefusesShortGeneration(t *testing.T) {
	s := newFullStore(t, nil)
	withBackups(t, s)
	s.Put(ctlCtx, "pd:bob", []byte("bob-data"), PutOptions{Owner: "bob"})
	gen := mustBackup(t, s)
	s.Put(ctlCtx, "post-backup", []byte("kept"), PutOptions{Owner: "bob"})
	raw, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gen, raw[:len(raw)-1], 0o600); err != nil {
		t.Fatal(err)
	}
	before := legacyDump(t, s)
	if _, _, err := s.RestoreBackup(ctlCtx); err == nil {
		t.Fatal("a generation that reads short was restored")
	}
	if got := legacyDump(t, s); got != before {
		t.Fatalf("refused restore changed the keyspace\n--- after ---\n%s--- before ---\n%s", got, before)
	}
}

// TestRestoreReplacesLiveState: keys written after the backup was taken do
// not survive the restore, and overwritten keys get the backup's value
// back: a restore replaces the live keyspace, it does not merge into it.
func TestRestoreReplacesLiveState(t *testing.T) {
	s := newFullStore(t, nil)
	withBackups(t, s)
	s.Put(ctlCtx, "kept", []byte("original"), PutOptions{Owner: "bob"})
	mustBackup(t, s)
	s.Put(ctlCtx, "post-backup", []byte("should-not-survive"), PutOptions{Owner: "bob"})
	s.Put(ctlCtx, "kept", []byte("clobbered"), PutOptions{Owner: "bob"})

	if n, _, err := s.RestoreBackup(ctlCtx); err != nil || n != 1 {
		t.Fatalf("restore = %d, %v", n, err)
	}
	if s.Exists("post-backup") {
		t.Fatal("restore merged: post-backup key survived")
	}
	if v, err := s.Get(ctlCtx, "kept"); err != nil || string(v) != "original" {
		t.Fatalf("kept = %q, %v; want the backup's value", v, err)
	}
	if s.Len() != 1 {
		t.Fatalf("restored keyspace has %d keys, want exactly the backup's 1", s.Len())
	}
}

// TestBackupSkipsExpired: a record past its retention deadline is not
// written into a generation, so a restore cannot resurrect it.
func TestBackupSkipsExpired(t *testing.T) {
	s := newFullStore(t, nil)
	withBackups(t, s)
	s.Put(ctlCtx, "live", []byte("1"), PutOptions{Owner: "bob", TTL: time.Hour})
	s.Put(ctlCtx, "dead", []byte("2"), PutOptions{Owner: "bob", TTL: time.Second})
	vclock(s).Advance(time.Minute)
	if names := backupNames(t, s); !reflect.DeepEqual(names, []string{opRecord}) {
		t.Fatalf("generation holds %v, want the live record alone", names)
	}
	if _, _, err := s.RestoreBackup(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if s.Exists("dead") || !s.Exists("live") {
		t.Fatal("expired data resurrected through a backup, or live data lost")
	}
}
