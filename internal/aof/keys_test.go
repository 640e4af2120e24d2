package aof_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gdprstore/internal/aof"
)

type slotView struct {
	wrapped []byte
	epoch   uint64
}

// openKeys opens the key file at path and returns what it holds by owner.
func openKeys(t *testing.T, path string, key []byte) (*aof.Keys, map[string]slotView) {
	t.Helper()
	got := map[string]slotView{}
	k, err := aof.OpenKeys(path, key, func(owner string, wrapped []byte, epoch uint64) error {
		got[owner] = slotView{wrapped, epoch}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, got
}

// TestKeysSlotLifecycle: slots round-trip through the file, encrypted at
// rest or not; a zeroed slot is raw zeros on disk and the next new owner
// reuses it; nothing is written before Start.
func TestKeysSlotLifecycle(t *testing.T) {
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{9}, 32)} {
		path := filepath.Join(t.TempDir(), "store.aof.keys")
		wa := bytes.Repeat([]byte{0xa1}, aof.WrappedKeySize)
		wb := bytes.Repeat([]byte{0xb2}, aof.WrappedKeySize)
		wc := bytes.Repeat([]byte{0xc3}, aof.WrappedKeySize)

		k, got := openKeys(t, path, key)
		if len(got) != 0 {
			t.Fatalf("a missing file holds %v", got)
		}
		if err := k.Put("alice", 0, wa); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("a write before Start reached the disk: %v", err)
		}
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		if err := k.Put("bob", 3, wb); err != nil {
			t.Fatal(err)
		}
		if err := k.Put("alice", 1, wa); err != nil { // in place
			t.Fatal(err)
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		if len(raw) != 2*aof.KeySlotSize || (key != nil && bytes.Contains(raw, []byte("alice"))) {
			t.Fatalf("key %v: file of %d bytes, plaintext owner %v", key != nil, len(raw), bytes.Contains(raw, []byte("alice")))
		}

		k, got = openKeys(t, path, key)
		if want := map[string]slotView{"alice": {wa, 1}, "bob": {wb, 3}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened: %v, want %v", got, want)
		}
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		if err := k.Zero("alice"); err != nil {
			t.Fatal(err)
		}
		raw, _ = os.ReadFile(path)
		if !bytes.Equal(raw[:aof.KeySlotSize], make([]byte, aof.KeySlotSize)) {
			t.Fatal("a zeroed slot is not raw zeros on disk")
		}
		if err := k.Put("carol", 0, wc); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		if raw, _ = os.ReadFile(path); len(raw) != 2*aof.KeySlotSize {
			t.Fatalf("carol did not reuse the freed slot: %d bytes", len(raw))
		}
		k, got = openKeys(t, path, key)
		k.Close()
		if want := map[string]slotView{"bob": {wb, 3}, "carol": {wc, 0}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("after zero and reuse: %v, want %v", got, want)
		}
	}
}

// TestKeysDuplicateOwnerKeepsNewest: two slots of one owner (a reuse whose
// zeroing never reached the disk) load as the newer epoch, in either
// order; Start zeroes the older one.
func TestKeysDuplicateOwnerKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	slot := func(epoch uint64, w []byte) []byte {
		path := filepath.Join(dir, "one.keys")
		os.Remove(path)
		k, _ := openKeys(t, path, nil)
		if err := errors.Join(k.Start(), k.Put("alice", epoch, w), k.Close()); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		return raw
	}
	old := slot(0, bytes.Repeat([]byte{1}, aof.WrappedKeySize))
	cur := bytes.Repeat([]byte{2}, aof.WrappedKeySize)
	for i, file := range [][]byte{append(slot(2, cur), old...), append(old, slot(2, cur)...)} {
		path := filepath.Join(dir, "two.keys")
		if err := os.WriteFile(path, file, 0o600); err != nil {
			t.Fatal(err)
		}
		k, got := openKeys(t, path, nil)
		if want := map[string]slotView{"alice": {cur, 2}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("order %d: loaded %v, want %v", i, got, want)
		}
		if err := errors.Join(k.Start(), k.Close()); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		if zeros := make([]byte, aof.KeySlotSize); !bytes.Equal(raw[(1-i)*aof.KeySlotSize:][:aof.KeySlotSize], zeros) {
			t.Fatalf("order %d: Start left the older duplicate slot", i)
		}
	}
}
