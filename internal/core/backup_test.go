package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"gdprstore/internal/aof"
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
// holds, in order, read back with aof.Load: the trailer closes the list.
func backupNames(t *testing.T, s *Store) []string {
	t.Helper()
	var names []string
	if _, err := aof.Load(mustBackup(t, s), nil, func(name string, _ [][]byte) error {
		names = append(names, name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(names); n == 0 || names[n-1] != "BACKUPEND" {
		t.Fatalf("generation holds %v: no trailer", names)
	}
	return names[:len(names)-1]
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
// snapshot without the keyring: bob's records with their metadata, and his
// objection held in his owner record, each a GREC, and no objection delta,
// key or erasure mark.
func TestBackupIsCompliantSnapshot(t *testing.T) {
	s := newFullStore(t, func(c *Config) {
		c.Envelope, c.MasterKey = true, bytes.Repeat([]byte{5}, 32)
	})
	withBackups(t, s)
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
}

// TestBackupSkipsExpired: a record past its retention deadline is not
// written into a generation.
func TestBackupSkipsExpired(t *testing.T) {
	s := newFullStore(t, nil)
	withBackups(t, s)
	s.Put(ctlCtx, "live", []byte("1"), PutOptions{Owner: "bob", TTL: time.Hour})
	s.Put(ctlCtx, "dead", []byte("2"), PutOptions{Owner: "bob", TTL: time.Second})
	vclock(s).Advance(time.Minute)
	if names := backupNames(t, s); !reflect.DeepEqual(names, []string{opRecord}) {
		t.Fatalf("generation holds %v, want the live record alone", names)
	}
}
