package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
)

// reopenable builds a persistent full-compliance config over path.
func persistentCfg(path string, vc *clock.Virtual, mutate func(*Config)) Config {
	cfg := Strict("")
	cfg.Clock = vc
	cfg.AOFPath = path
	cfg.AOFSync = Ptr(aof.SyncNo) // durability policy irrelevant to replay tests
	cfg.DefaultTTL = 24 * time.Hour
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func addPrincipals(s *Store) {
	s.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	s.ACL().AddPrincipal(acl.Principal{ID: "alice", Role: acl.RoleSubject})
}

func TestReplayRestoresDataAndMetadata(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(1_000_000, 0))

	s, err := Open(persistentCfg(path, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	s.Put(ctlCtx, "k1", []byte("v1"), PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour})
	s.Put(ctlCtx, "k2", []byte("v2"), PutOptions{Owner: "alice", Purposes: []string{"billing"}})
	s.Delete(ctlCtx, "k2")
	s.Object(Ctx{Actor: "alice"}, "alice", "marketing")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(persistentCfg(path, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	addPrincipals(s2)

	v, err := s2.Get(Ctx{Actor: "controller", Purpose: "billing"}, "k1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("replayed value = %q, %v", v, err)
	}
	if _, err := s2.Get(ctlCtx, "k2"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key resurrected by replay")
	}
	m, err := s2.Metadata(ctlCtx, "k1")
	if err != nil || m.Owner != "alice" || len(m.Purposes) != 1 {
		t.Fatalf("replayed metadata = %+v, %v", m, err)
	}
	if obj := s2.Objections("alice"); len(obj) != 1 || obj[0] != "marketing" {
		t.Fatalf("replayed objections = %v", obj)
	}
	// TTL survives replay.
	d, st := s2.TTL("k1")
	if d <= 0 || d > time.Hour {
		t.Fatalf("replayed TTL = %v, %v", d, st)
	}
}

func TestReplayExpiredKeyStaysDead(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, _ := Open(persistentCfg(path, vc, nil))
	addPrincipals(s)
	s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Minute})
	s.Close()

	vc.Advance(time.Hour) // key expires while the store is down
	s2, err := Open(persistentCfg(path, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	addPrincipals(s2)
	if _, err := s2.Get(ctlCtx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("key that expired during downtime served: %v", err)
	}
}

func TestForgetRealTimeCompactsAOF(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, _ := Open(persistentCfg(path, vc, nil))
	addPrincipals(s)
	secret := []byte("alice-super-sensitive-payload")
	s.Put(ctlCtx, "a1", secret, PutOptions{Owner: "alice"})
	s.Log().Sync()
	raw, _ := os.ReadFile(path)
	if !bytes.Contains(raw, secret) {
		t.Fatal("sanity: plaintext AOF should contain the payload before erasure")
	}
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	// Real-time timing: the AOF must already be compacted — no copy of the
	// erased data persists anywhere (§4.3).
	erasedOnDisk(t, filepath.Dir(path), nil, nil, []string{"alice"}, [][]byte{secret})
	s.Close()

	s2, _ := Open(persistentCfg(path, vc, nil))
	defer s2.Close()
	addPrincipals(s2)
	if _, err := s2.Get(ctlCtx, "a1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("forgotten key resurrected")
	}
}

func TestForgetEventualDefersCompaction(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, _ := Open(persistentCfg(path, vc, func(c *Config) { c.Timing = TimingEventual }))
	addPrincipals(s)
	secret := []byte("bob-payload-to-erase")
	s.Put(ctlCtx, "b1", secret, PutOptions{Owner: "alice"})
	s.Forget(Ctx{Actor: "alice"}, "alice")
	if !s.pendingRewrite.Load() {
		t.Fatal("eventual Forget did not schedule compaction")
	}
	s.Log().Sync()
	raw, _ := os.ReadFile(path)
	if !bytes.Contains(raw, secret) {
		t.Fatal("eventual timing should leave data in AOF until Maintain")
	}
	st := s.Maintain()
	if !st.Rewrote {
		t.Fatal("Maintain did not run the deferred compaction")
	}
	erasedOnDisk(t, filepath.Dir(path), nil, nil, []string{"alice"}, [][]byte{secret})
	s.Close()
}

func TestEnvelopeEncryptionEndToEnd(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	master := bytes.Repeat([]byte{0x42}, 32)
	mk := func(c *Config) {
		c.Envelope = true
		c.MasterKey = master
	}
	s, err := Open(persistentCfg(path, vc, mk))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	secret := []byte("alice-envelope-secret")
	s.Put(ctlCtx, "a1", secret, PutOptions{Owner: "alice"})
	v, err := s.Get(ctlCtx, "a1")
	if err != nil || !bytes.Equal(v, secret) {
		t.Fatalf("get = %q, %v", v, err)
	}
	// The engine and AOF must hold ciphertext only.
	rawVal, _ := s.Engine().Get("a1")
	if bytes.Contains(rawVal, secret) {
		t.Fatal("engine holds plaintext despite envelope encryption")
	}
	s.Log().Sync()
	erasedOnDisk(t, filepath.Dir(path), nil, master, nil, [][]byte{secret})
	s.Close()

	// Restart: the key loads from the key file, data decrypts.
	s2, err := Open(persistentCfg(path, vc, mk))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s2)
	v, err = s2.Get(ctlCtx, "a1")
	if err != nil || !bytes.Equal(v, secret) {
		t.Fatalf("after restart get = %q, %v", v, err)
	}

	// Crypto-shredding: Forget destroys the key; even if ciphertext
	// lingered somewhere, it is unreadable; and new writes for alice fail.
	s2.Forget(Ctx{Actor: "alice"}, "alice")
	if err := s2.Put(ctlCtx, "a2", []byte("new"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("put after shred err = %v", err)
	}
	s2.Close()

	// Restart again: the erasure replays, and still refuses alice's writes.
	s3, err := Open(persistentCfg(path, vc, mk))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	addPrincipals(s3)
	if err := s3.Put(ctlCtx, "a2", []byte("new"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("put after the erasure replayed: %v, want ErrErased", err)
	}
	if _, err := s3.Get(ctlCtx, "a1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("forgotten record replayed")
	}
}

func TestAtRestEncryptionAOF(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	key := bytes.Repeat([]byte{0x17}, 32)
	mk := func(c *Config) { c.AtRestKey = key }
	s, err := Open(persistentCfg(path, vc, mk))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	secret := []byte("at-rest-protected-payload")
	s.Put(ctlCtx, "k", secret, PutOptions{Owner: "alice"})
	s.Log().Sync()
	raw, _ := os.ReadFile(path)
	if bytes.Contains(raw, secret) {
		t.Fatal("plaintext on disk despite at-rest key (LUKS stand-in broken)")
	}
	s.Close()
	s2, err := Open(persistentCfg(path, vc, mk))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	addPrincipals(s2)
	v, err := s2.Get(ctlCtx, "k")
	if err != nil || !bytes.Equal(v, secret) {
		t.Fatalf("encrypted replay = %q, %v", v, err)
	}
}

func TestCompactionPreservesState(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, _ := Open(persistentCfg(path, vc, nil))
	addPrincipals(s)
	for i := 0; i < 50; i++ {
		s.Put(ctlCtx, "hot", []byte{byte(i)}, PutOptions{Owner: "alice", TTL: time.Hour})
	}
	s.Object(Ctx{Actor: "alice"}, "alice", "ads")
	before := s.Log().Size()
	if err := s.Compact(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if s.Log().Size() >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, s.Log().Size())
	}
	s.Close()
	s2, _ := Open(persistentCfg(path, vc, nil))
	defer s2.Close()
	addPrincipals(s2)
	v, err := s2.Get(ctlCtx, "hot")
	if err != nil || v[0] != 49 {
		t.Fatalf("post-compaction value = %v, %v", v, err)
	}
	if obj := s2.Objections("alice"); len(obj) != 1 {
		t.Fatalf("objections lost in compaction: %v", obj)
	}
}

func TestEnvelopeRequiresMasterKey(t *testing.T) {
	cfg := Strict("")
	cfg.Envelope = true
	if _, err := Open(cfg); err == nil {
		t.Fatal("envelope without master key accepted")
	}
}
