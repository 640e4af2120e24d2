package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/replica"
	"gdprstore/internal/testutil"
)

// diskResidue is the on-disk half of the erasure promise, checked over a
// data dir's files rather than through a running store. It walks every
// file under dir (the AOF, the key file, backup generations, the trail),
// each decrypted at rest under atRestKey (nil: plaintext), and reports
// each of markers a file holds and each wrapped key of one of owners (a
// key-file slot or a journaled GKEY). With a master key it also unwraps
// every wrapped key it finds, under "wrap:"+its owner, and reports each
// one that opens a sealed GREC value of one of owners, with the value's
// key name as associated data.
func diskResidue(t *testing.T, dir string, atRestKey, master []byte, owners []string, markers [][]byte) []string {
	t.Helper()
	erased := map[string]bool{}
	for _, o := range owners {
		erased[o] = true
	}
	type wrappedKey struct {
		owner, path string
		w           []byte
	}
	type sealedValue struct {
		key, path string
		v         []byte
	}
	var found []string
	var keys []wrappedKey
	var values []sealedValue
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		r, err := aof.OpenReader(path, atRestKey)
		if err != nil {
			return err
		}
		plain, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			return err
		}
		for _, m := range markers {
			if bytes.Contains(plain, m) {
				found = append(found, fmt.Sprintf("%s holds %q", path, m))
			}
		}
		keep := func(owner string, w []byte) {
			keys = append(keys, wrappedKey{owner, path, w})
			if erased[owner] {
				found = append(found, fmt.Sprintf("%s holds the wrapped key of erased %s", path, owner))
			}
		}
		if strings.HasSuffix(path, ".keys") {
			k, err := aof.OpenKeys(path, atRestKey, func(owner string, w []byte, _ uint64) error {
				keep(owner, w)
				return nil
			})
			if err != nil {
				return err
			}
			return k.Close()
		}
		// Any other file is read as a record stream as far as it parses:
		// the trail does not, the AOF and backup generations do.
		_, _ = aof.Load(path, atRestKey, func(name string, args [][]byte) error {
			switch {
			case name == opKey && len(args) == 3:
				keep(string(args[0]), args[1])
			case name == opRecord && len(args) >= 3:
				if m, err := decodeMetadata(args[0]); err == nil && erased[m.Owner] {
					for i := 1; i+1 < len(args); i += 2 {
						values = append(values, sealedValue{string(args[i]), path, args[i+1]})
					}
				}
			}
			return nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if master == nil {
		return found
	}
	for _, k := range keys {
		dk, err := cryptoutil.Open(master, k.w, []byte("wrap:"+k.owner))
		if err != nil {
			continue
		}
		for _, v := range values {
			if _, err := cryptoutil.Open(dk, v.v, []byte(v.key)); err == nil {
				found = append(found, fmt.Sprintf("%s's key from %s opens erased %s in %s", k.owner, k.path, v.key, v.path))
			}
		}
	}
	return found
}

// erasedOnDisk fails t unless diskResidue finds nothing: no file under dir
// holds a marker or a wrapped key of an erased owner, and no wrapped key
// on disk opens an erased owner's sealed value.
func erasedOnDisk(t *testing.T, dir string, atRestKey, master []byte, owners []string, markers [][]byte) {
	t.Helper()
	for _, f := range diskResidue(t, dir, atRestKey, master, owners, markers) {
		t.Error(f)
	}
}

// TestForgetLeavesNoKeyOnDisk: after a crypto-shredding Forget and Close,
// no file of the data dir opens the erased value with the master key:
// under real-time timing, under eventual timing with no Maintain, and on a
// networked replica's own data dir. Before the Forget the same check finds
// the owner's key, so it is not vacuous.
func TestForgetLeavesNoKeyOnDisk(t *testing.T) {
	master := bytes.Repeat([]byte{0x21}, 32)
	atRest := bytes.Repeat([]byte{0x17}, 32)
	secret := []byte("alice-on-disk-marker-5f1c")
	envelope := func(dir string, preset func(string) Config) Config {
		cfg := preset(filepath.Join(dir, "audit.log"))
		cfg.Clock = clock.NewVirtual(time.Unix(1_000_000, 0))
		cfg.AOFPath = filepath.Join(dir, "store.aof")
		cfg.AtRestKey = atRest
		cfg.Envelope, cfg.MasterKey = true, master
		return cfg
	}
	alice := PutOptions{Owner: "alice", TTL: time.Hour}
	for _, tc := range []struct {
		name   string
		preset func(string) Config
	}{{"strict", Strict}, {"eventual", EventualFull}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(envelope(dir, tc.preset))
			if err != nil {
				t.Fatal(err)
			}
			addPrincipals(s)
			if err := s.Put(ctlCtx, "pd:alice", secret, alice); err != nil {
				t.Fatal(err)
			}
			if err := s.Log().Sync(); err != nil {
				t.Fatal(err)
			}
			if len(diskResidue(t, dir, atRest, master, []string{"alice"}, nil)) == 0 {
				t.Fatal("before the Forget the check finds no key of alice's on disk")
			}
			if _, err := s.Forget(ctlCtx, "alice"); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			erasedOnDisk(t, dir, atRest, master, []string{"alice"}, [][]byte{secret})
		})
	}
	t.Run("replica", func(t *testing.T) {
		s := newFullStore(t, func(c *Config) { c.Envelope, c.MasterKey = true, master })
		dir := t.TempDir()
		r := attachReplica(t, s, envelope(dir, Strict))
		if err := s.Put(ctlCtx, "pd:alice", secret, alice); err != nil {
			t.Fatal(err)
		}
		caughtUp(t, s)
		if len(diskResidue(t, dir, atRest, master, []string{"alice"}, nil)) == 0 {
			t.Fatal("the replica's key file does not hold alice's key")
		}
		if _, err := s.Forget(ctlCtx, "alice"); err != nil {
			t.Fatal(err)
		}
		caughtUp(t, s)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		erasedOnDisk(t, dir, atRest, master, []string{"alice"}, [][]byte{secret})
	})
}

// keyFileMaster is keyFileCfg's master key.
var keyFileMaster = bytes.Repeat([]byte{0x33}, 32)

// keyFileCfg is persistentCfg with envelope encryption on.
func keyFileCfg(path string, vc *clock.Virtual) Config {
	return persistentCfg(path, vc, func(c *Config) { c.Envelope, c.MasterKey = true, keyFileMaster })
}

// appendRecords appends records, each a name and its arguments, to the AOF
// at path, as the previous release wrote them.
func appendRecords(t *testing.T, path string, recs ...[][]byte) {
	t.Helper()
	l, err := aof.Open(path, aof.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(string(r[0]), r[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptedShredZeroesSlot: a crash after the erased owner record was
// durable but before the slot's zeros were leaves the slot intact. Open
// zeroes it and never imports the key, and the subject stays erased.
func TestInterruptedShredZeroesSlot(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	secret := []byte("alice-interrupted-shred")
	s, err := Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	if err := s.Put(ctlCtx, "a1", secret, PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path + ".keys")
	if err != nil {
		t.Fatal(err)
	}
	s, err = Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	if _, err := s.Forget(ctlCtx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".keys", intact, 0o600); err != nil {
		t.Fatal(err)
	}

	s, err = Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	if _, err := s.Get(ctlCtx, "a1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the erased value reads %v", err)
	}
	if err := s.Put(ctlCtx, "a2", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("a Put for the erased owner: %v, want ErrErased", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path + ".keys"); len(raw) != aof.KeySlotSize || !bytes.Equal(raw, make([]byte, aof.KeySlotSize)) {
		t.Fatalf("the key file is %d bytes, not one zeroed slot", len(raw))
	}
	erasedOnDisk(t, filepath.Dir(path), nil, keyFileMaster, []string{"alice"}, [][]byte{secret})
}

// TestZeroedSlotWithoutShred: a crash can leave an owner's slot zeroed, or
// holding another owner's key, while the erased owner record journaled
// before it never reached the AOF. Open finds the owner's records sealed
// under a key that is nowhere and erases the owner at the next epoch: the
// records stay unreadable, and a Put is refused, also after a restart.
func TestZeroedSlotWithoutShred(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	reopen := func() *Store {
		s, err := Open(keyFileCfg(path, vc))
		if err != nil {
			t.Fatal(err)
		}
		addPrincipals(s)
		return s
	}
	s := reopen()
	if err := s.Put(ctlCtx, "a1", []byte("first"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	beforeShred, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s = reopen()
	if _, err := s.Forget(ctlCtx, "alice"); err != nil {
		t.Fatal(err)
	}
	// carol's new key takes the slot alice's zeroing freed.
	if err := s.Put(ctlCtx, "c1", []byte("carol"), PutOptions{Owner: "carol"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path + ".keys"); len(raw) != aof.KeySlotSize {
		t.Fatalf("the key file is %d bytes, want carol's key in alice's old slot", len(raw))
	}
	if err := os.WriteFile(path, beforeShred, 0o600); err != nil {
		t.Fatal(err)
	}

	s = reopen()
	if _, err := s.Get(ctlCtx, "a1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the keyless value reads %v", err)
	}
	if err := s.Put(ctlCtx, "a2", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("a Put for the keyless owner: %v, want ErrErased", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = reopen()
	defer s.Close()
	if err := s.Put(ctlCtx, "a2", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("a Put for the keyless owner after a restart: %v, want ErrErased", err)
	}
	if _, err := s.Get(ctlCtx, "a1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the keyless value reads %v after a restart", err)
	}
}

// TestMissingKeyFileRefused: an AOF whose sealed records have no key
// because the key file is not there is refused, and the data dir is left
// as it was, so that restoring the file brings the values back instead of
// every owner being shredded.
func TestMissingKeyFileRefused(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, err := Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	if err := s.Put(ctlCtx, "a1", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if err := os.Rename(path+".keys", path+".keys.away"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(keyFileCfg(path, vc)); err == nil || !strings.Contains(err.Error(), "key file") {
		t.Fatalf("Open without the key file: %v, want a refusal naming it", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("the refused Open changed the AOF")
	}
	if _, err := os.Stat(path + ".keys"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused Open left a key file: %v", err)
	}
	if err := os.Rename(path+".keys.away", path+".keys"); err != nil {
		t.Fatal(err)
	}
	s, err = Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	if v, err := s.Get(ctlCtx, "a1"); err != nil || string(v) != "v" {
		t.Fatalf("after the key file is back the value reads %q, %v", v, err)
	}
}

// TestTornKeySlotZeroed: a slot that fails its checksum (a torn write) is
// zeroed on open and its key is not imported, so its owner is shredded;
// the other slots are imported.
func TestTornKeySlotZeroed(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, err := Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	for _, o := range []string{"alice", "bob"} {
		if err := s.Put(ctlCtx, "k:"+o, []byte("v:"+o), PutOptions{Owner: o}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path + ".keys")
	if err != nil || len(raw) != 2*aof.KeySlotSize {
		t.Fatalf("key file: %d bytes, %v", len(raw), err)
	}
	raw[20] ^= 0xff // alice's slot, the first written
	if err := os.WriteFile(path+".keys", raw, 0o600); err != nil {
		t.Fatal(err)
	}

	s, err = Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	if _, err := s.Get(ctlCtx, "k:alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a value under the torn slot's key reads %v", err)
	}
	if v, err := s.Get(ctlCtx, "k:bob"); err != nil || string(v) != "v:bob" {
		t.Fatalf("the intact slot's value reads %q, %v", v, err)
	}
	if err := s.Put(ctlCtx, "k:alice", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("a Put for the torn slot's owner: %v, want ErrErased (its key is gone)", err)
	}
	raw, _ = os.ReadFile(path + ".keys")
	if !bytes.Equal(raw[:aof.KeySlotSize], make([]byte, aof.KeySlotSize)) {
		t.Fatal("the torn slot was not zeroed on open")
	}
}

// TestOwnerTooLongForKeySlot: under envelope encryption an owner name that
// does not fit a key-file slot is refused with ErrOwnerTooLong, and the
// longest that fits round-trips through the key file.
func TestOwnerTooLongForKeySlot(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, err := Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	longest := strings.Repeat("o", aof.MaxKeyOwner)
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: longest + "o"}); !errors.Is(err, ErrOwnerTooLong) {
		t.Fatalf("an owner of %d bytes: %v, want ErrOwnerTooLong", aof.MaxKeyOwner+1, err)
	}
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: longest}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	if v, err := s.Get(ctlCtx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("the longest owner's value reads %q, %v", v, err)
	}
}

// TestFullSyncZeroesReplicaStaleKey: a replica that was down while the
// primary erased an owner keeps the owner's old key in its key file until
// it resyncs; the full sync's erased owner record zeroes it, also after the
// primary compacted its AOF and restarted in between.
func TestFullSyncZeroesReplicaStaleKey(t *testing.T) {
	dir, vc := t.TempDir(), clock.NewVirtual(time.Unix(0, 0))
	primaryPath := filepath.Join(t.TempDir(), "primary.aof")
	primary := func() (*Store, *replica.Hub, string) {
		s, err := Open(keyFileCfg(primaryPath, vc))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		addPrincipals(s)
		hub, err := s.EnableStreamReplication()
		if err != nil {
			t.Fatal(err)
		}
		return s, hub, servePSYNC(t, hub, s.StreamSnapshot)
	}
	// follow runs a replica on dir until it has caught up with s.
	follow := func(s *Store, hub *replica.Hub, addr string, then func()) {
		rs, err := Open(keyFileCfg(filepath.Join(dir, "replica.aof"), vc))
		if err != nil {
			t.Fatal(err)
		}
		n := replica.DialPrimary(rs, addr, replica.NodeOptions{ReconnectMin: 5 * time.Millisecond})
		testutil.Eventually(t, 5*time.Second, 0, func() bool { return len(hub.Links()) == 1 }, "replica never linked")
		then()
		caughtUp(t, s)
		n.Close()
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		testutil.Eventually(t, 5*time.Second, 0, func() bool { return len(hub.Links()) == 0 }, "the link outlived its node")
	}
	s, hub, addr := primary()
	follow(s, hub, addr, func() {
		if err := s.Put(ctlCtx, "pd:alice", []byte("v"), PutOptions{Owner: "alice"}); err != nil {
			t.Fatal(err)
		}
	})
	if len(diskResidue(t, dir, nil, keyFileMaster, []string{"alice"}, nil)) == 0 {
		t.Fatal("the stopped replica's key file does not hold alice's key")
	}
	if _, err := s.Forget(ctlCtx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, hub, addr = primary()
	follow(s, hub, addr, func() {})
	erasedOnDisk(t, dir, nil, keyFileMaster, []string{"alice"}, nil)
	if err := s.Put(ctlCtx, "pd:alice", []byte("again"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("the erased owner's Put after the restart: %v, want ErrErased", err)
	}
}

// TestErasureSurvivesFlushAll: FLUSHALL keeps an erased subject's owner
// record, so the erasure still refuses the subject's writes: live, after a
// reopen replays the FLUSHALL, and on a replica that received it.
func TestErasureSurvivesFlushAll(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	s, err := Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addPrincipals(s)
	r := attachReplica(t, s, keyFileCfg(filepath.Join(t.TempDir(), "replica.aof"), vc))
	addPrincipals(r.Store)
	for _, owner := range []string{"alice", "bob"} {
		if err := s.Put(ctlCtx, owner+":1", []byte("v"), PutOptions{Owner: owner}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Forget(ctlCtx, "alice"); err != nil {
		t.Fatal(err)
	}
	s.FlushAll()
	caughtUp(t, s)
	erased := func(what string, st *Store) {
		t.Helper()
		if err := st.Put(ctlCtx, "alice:2", []byte("v"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
			t.Fatalf("%s: a Put for alice after Forget and FLUSHALL: %v, want ErrErased", what, err)
		}
		if n, erased := st.Len(), st.ErasureStats().ShreddedOwners; n != 0 || erased != 1 {
			t.Fatalf("%s: %d keys and %d erased owners after FLUSHALL, want 0 and alice", what, n, erased)
		}
	}
	erased("live", s)
	erased("replica", r.Store)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(keyFileCfg(path, vc))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	erased("reopened", s)
	if err := s.Put(ctlCtx, "bob:2", []byte("v"), PutOptions{Owner: "bob"}); err != nil {
		t.Fatalf("FLUSHALL took bob's records, not his standing: %v", err)
	}
}
