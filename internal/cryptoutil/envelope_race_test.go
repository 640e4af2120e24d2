package cryptoutil

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestKeyringShredRace is the regression test for the shred/seal data
// race: Ensure and KeyFor used to return the keyring's live key slice,
// and Shred zeroed that same backing array in place — a concurrent seal or
// open could read a half-zeroed key (or trip the race detector). The fix returns defensive copies and deletes the map entry
// before zeroing. This test hammers seal/open against shred cycles, each
// shredded key made afresh by the next seal; run it under -race.
func TestKeyringShredRace(t *testing.T) {
	master := bytes.Repeat([]byte{0x33}, 32)
	kr, err := NewKeyring(master)
	if err != nil {
		t.Fatal(err)
	}
	owners := []string{"alice", "bob", "carol"}
	const iters = 500

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pt := []byte(fmt.Sprintf("payload-%d", g))
			for i := 0; i < iters; i++ {
				owner := owners[i%len(owners)]
				sealed, err := sealFor(kr, owner, pt)
				if err != nil {
					continue
				}
				got, err := openFor(kr, owner, sealed)
				if err != nil {
					// The owner was shredded between seal and open;
					// legitimate under this schedule.
					continue
				}
				if !bytes.Equal(got, pt) {
					t.Errorf("roundtrip corrupted: %q != %q (half-zeroed key?)", got, pt)
					return
				}
				if _, err := kr.KeyFor(owner); err == nil {
					_, _, _, _ = kr.Ensure(owner)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			owner := owners[i%len(owners)]
			kr.Shred(owner)
			_, _ = kr.KeyEpoch(owner)
		}
	}()
	wg.Wait()
}

// TestEnsureReturnsDefensiveCopy pins the fix directly: mutating the
// slices Ensure/KeyFor hand out must not corrupt the keyring's state.
func TestEnsureReturnsDefensiveCopy(t *testing.T) {
	master := bytes.Repeat([]byte{0x44}, 32)
	kr, err := NewKeyring(master)
	if err != nil {
		t.Fatal(err)
	}
	k1, w1, _, err := kr.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := range k1 {
		k1[i] = 0xFF
	}
	for i := range w1 {
		w1[i] ^= 0xFF
	}
	k2, err := kr.KeyFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("KeyFor returned the mutated caller slice: no defensive copy")
	}
	sealed, err := sealFor(kr, "alice", []byte("intact"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := openFor(kr, "alice", sealed); err != nil || string(got) != "intact" {
		t.Fatalf("keyring state corrupted by caller mutation: %q, %v", got, err)
	}
	// The wrapped copy is defensive too: the original export still
	// imports into a fresh keyring.
	wrapped, err := kr.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	kr2, err := NewKeyring(master)
	if err != nil {
		t.Fatal(err)
	}
	if err := kr2.ImportAt("alice", wrapped["alice"], 0); err != nil {
		t.Fatalf("exported wrapped key corrupted: %v", err)
	}
	if got, err := openFor(kr2, "alice", sealed); err != nil || string(got) != "intact" {
		t.Fatalf("reimported key cannot open: %q, %v", got, err)
	}
}

// TestShredEpochSemantics pins the epoch mechanism the compliance layer
// leans on: a record is live only while the ring holds the key made at the
// record's epoch, so a shred kills every record sealed before it, and a key
// imported at a later epoch (the key file, the stream) serves that epoch
// alone. Re-importing the same key is idempotent.
func TestShredEpochSemantics(t *testing.T) {
	master := bytes.Repeat([]byte{0x55}, 32)
	kr, err := NewKeyring(master)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := kr.Ensure("alice"); err != nil {
		t.Fatal(err)
	}
	if !kr.RecordLive("alice", 0) {
		t.Fatal("freshly sealed record not live")
	}
	kr.Shred("alice")
	if kr.RecordLive("alice", 0) || !shredded(kr, "alice") {
		t.Fatal("record live after its key was shredded")
	}
	other, err := NewKeyring(master)
	if err != nil {
		t.Fatal(err)
	}
	_, w, _, err := other.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := kr.ImportAt("alice", w, 1); err != nil {
			t.Fatal(err)
		}
		if e, ok := kr.KeyEpoch("alice"); !ok || e != 1 || kr.RecordLive("alice", 0) || !kr.RecordLive("alice", 1) {
			t.Fatalf("import %d at epoch 1: key epoch %d held %v", i, e, ok)
		}
	}
}
