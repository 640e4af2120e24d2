package cryptoutil

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func testKey(b byte) []byte { return bytes.Repeat([]byte{b}, BlockCipherKeySize) }

// errNoKey is openFor's answer for an owner the ring holds no key for.
var errNoKey = errors.New("no key")

// sealFor and openFor seal and open under owner's data key through the
// ring's prepared ciphers, as the compliance layer does, with the owner as
// associated data. openFor never creates a key: an owner with none, or a
// shredded one, is errNoKey.
func sealFor(kr *Keyring, owner string, plaintext []byte) ([]byte, error) {
	c, _, _, err := kr.SealerFor(owner)
	if err != nil {
		return nil, err
	}
	return c.Seal(nil, plaintext, []byte(owner))
}

func openFor(kr *Keyring, owner string, sealed []byte) ([]byte, error) {
	c, _, ok := kr.CipherFor(owner)
	if !ok {
		return nil, errNoKey
	}
	return c.Open(nil, sealed, []byte(owner))
}

// shredded reports whether the ring holds no key for owner.
func shredded(kr *Keyring, owner string) bool {
	_, ok := kr.KeyEpoch(owner)
	return !ok
}

func TestOffsetCipherRoundTrip(t *testing.T) {
	c, err := NewOffsetCipher(testKey(1))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	buf := append([]byte(nil), data...)
	c.Apply(buf, 0)
	if bytes.Equal(buf, data) {
		t.Fatal("cipher is identity")
	}
	c.Apply(buf, 0)
	if !bytes.Equal(buf, data) {
		t.Fatal("double-apply did not restore plaintext")
	}
}

func TestOffsetCipherBadKey(t *testing.T) {
	if _, err := NewOffsetCipher([]byte("short")); err != ErrBadKeySize {
		t.Fatalf("err = %v", err)
	}
}

func TestOffsetCipherSplitEqualsWhole(t *testing.T) {
	// Property: encrypting a buffer in arbitrary split positions produces
	// the same ciphertext as encrypting it in one call — the invariant the
	// append-only writer depends on.
	c, _ := NewOffsetCipher(testKey(2))
	f := func(data []byte, splitRaw uint16, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw)
		whole := append([]byte(nil), data...)
		c.Apply(whole, off)

		split := int(splitRaw) % len(data)
		part := append([]byte(nil), data...)
		c.Apply(part[:split], off)
		c.Apply(part[split:], off+int64(split))
		return bytes.Equal(whole, part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderPipeline(t *testing.T) {
	c, _ := NewOffsetCipher(testKey(3))
	var sink bytes.Buffer
	w := NewWriter(&sink, c, 0)
	msgs := [][]byte{[]byte("hello "), []byte("encrypted "), []byte("world")}
	for _, m := range msgs {
		if _, err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	got := sink.Bytes()
	c.Apply(got, 0)
	if string(got) != "hello encrypted world" {
		t.Fatalf("got %q", got)
	}
}

func TestWriterDoesNotMutateInput(t *testing.T) {
	c, _ := NewOffsetCipher(testKey(4))
	w := NewWriter(io.Discard, c, 0)
	data := []byte("immutable")
	w.Write(data)
	if string(data) != "immutable" {
		t.Fatal("Write mutated caller's buffer")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := testKey(6)
	pt := []byte("personal data")
	ad := []byte("record-key")
	sealed, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, sealed, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("got %q", got)
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	key := testKey(6)
	sealed, _ := Seal(key, []byte("data"), []byte("ad"))
	sealed[len(sealed)-1] ^= 1
	if _, err := Open(key, sealed, []byte("ad")); err != ErrCorrupt {
		t.Fatalf("tampered open err = %v", err)
	}
}

func TestOpenRejectsWrongAD(t *testing.T) {
	key := testKey(6)
	sealed, _ := Seal(key, []byte("data"), []byte("key-a"))
	if _, err := Open(key, sealed, []byte("key-b")); err != ErrCorrupt {
		t.Fatal("cross-record replay not rejected (AD binding broken)")
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	if _, err := Open(testKey(1), []byte("tiny"), nil); err != ErrCorrupt {
		t.Fatalf("err = %v", err)
	}
}

func TestSealUniqueNonces(t *testing.T) {
	key := testKey(7)
	a, _ := Seal(key, []byte("same"), nil)
	b, _ := Seal(key, []byte("same"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals produced identical ciphertext (nonce reuse)")
	}
}

func TestKeyringSealOpen(t *testing.T) {
	kr, err := NewKeyring(testKey(9))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := sealFor(kr, "alice", []byte("alice's data"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := openFor(kr, "alice", sealed)
	if err != nil || string(got) != "alice's data" {
		t.Fatalf("got %q err %v", got, err)
	}
	// Bob's key must not open Alice's record.
	if _, err := openFor(kr, "bob", sealed); err == nil {
		t.Fatal("cross-owner decryption succeeded")
	}
}

// TestKeyringShred: a shredded owner's ciphertext stays dead. The ring
// keeps no mark of the shred (the store's owner record does): a key asked
// for afterwards is a fresh random one, which opens nothing sealed before.
func TestKeyringShred(t *testing.T) {
	kr, _ := NewKeyring(testKey(10))
	sealed, _ := sealFor(kr, "alice", []byte("secret"))
	kr.Shred("alice")
	if !shredded(kr, "alice") {
		t.Fatal("the ring still holds alice's key")
	}
	if _, err := openFor(kr, "alice", sealed); err != errNoKey {
		t.Fatalf("open after shred err = %v", err)
	}
	s2, err := sealFor(kr, "alice", []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openFor(kr, "alice", sealed); err == nil {
		t.Fatal("the key made after the shred opened the shredded record")
	}
	if got, err := openFor(kr, "alice", s2); err != nil || string(got) != "new" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestKeyringEnsureWrapImport(t *testing.T) {
	master := testKey(12)
	kr, _ := NewKeyring(master)
	k, wrapped, created, err := kr.Ensure("alice")
	if err != nil || !created || wrapped == nil {
		t.Fatalf("ensure: created=%v err=%v", created, err)
	}
	k2, w2, created2, _ := kr.Ensure("alice")
	if created2 || w2 != nil || !bytes.Equal(k, k2) {
		t.Fatal("second Ensure must return the same key, not create")
	}
	// A fresh keyring (restart) imports the wrapped key and can decrypt.
	sealed, _ := sealFor(kr, "alice", []byte("data"))
	kr2, _ := NewKeyring(master)
	if err := kr2.ImportAt("alice", wrapped, 0); err != nil {
		t.Fatal(err)
	}
	got, err := openFor(kr2, "alice", sealed)
	if err != nil || string(got) != "data" {
		t.Fatalf("after import: %q, %v", got, err)
	}
	// ImportAt with the wrong master must fail.
	kr3, _ := NewKeyring(testKey(13))
	if err := kr3.ImportAt("alice", wrapped, 0); err == nil {
		t.Fatal("import under wrong master succeeded")
	}
}

func TestKeyringExportAll(t *testing.T) {
	master := testKey(14)
	kr, _ := NewKeyring(master)
	kr.KeyFor("alice")
	kr.KeyFor("bob")
	kr.Shred("bob")
	wrapped, err := kr.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapped["alice"]; !ok {
		t.Fatal("alice missing from export")
	}
	if _, ok := wrapped["bob"]; ok {
		t.Fatal("shredded owner exported")
	}
	if len(wrapped) != 1 || !shredded(kr, "bob") || shredded(kr, "alice") {
		t.Fatalf("exported %d keys, want alice's alone", len(wrapped))
	}
}

func TestNewKeyringBadMaster(t *testing.T) {
	if _, err := NewKeyring([]byte("short")); err != ErrBadKeySize {
		t.Fatalf("err = %v", err)
	}
}

func TestRandomKeyLengthAndUniqueness(t *testing.T) {
	a, err := RandomKey()
	if err != nil || len(a) != BlockCipherKeySize {
		t.Fatalf("len=%d err=%v", len(a), err)
	}
	b, _ := RandomKey()
	if bytes.Equal(a, b) {
		t.Fatal("two random keys identical")
	}
}

func TestSealBadKeySize(t *testing.T) {
	if _, err := Seal([]byte("short"), []byte("x"), nil); err != ErrBadKeySize {
		t.Fatalf("err = %v", err)
	}
	if _, err := Open([]byte("short"), []byte("x"), nil); err != ErrBadKeySize {
		t.Fatalf("err = %v", err)
	}
}

// A prepared Cipher and the key-taking Seal/Open are one format: each opens
// what the other sealed, into whatever buffer the caller brings.
func TestCipherInterchangeableWithSealOpen(t *testing.T) {
	key, ad := testKey(3), []byte("user:alice:email")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("personal data "), 40)} {
		prefix := []byte("already here|")
		sealed, err := c.Seal(append([]byte(nil), prefix...), pt, ad)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(sealed, prefix) || len(sealed) != len(prefix)+len(pt)+SealOverhead {
			t.Fatalf("Seal into dst: %d bytes for a %d-byte plaintext after a %d-byte prefix", len(sealed), len(pt), len(prefix))
		}
		got, err := Open(key, sealed[len(prefix):], ad)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("Open of Cipher.Seal output: %q, %v", got, err)
		}

		sealed, err = Seal(key, pt, ad)
		if err != nil {
			t.Fatal(err)
		}
		got, err = c.Open(append([]byte(nil), prefix...), sealed, ad)
		if err != nil || !bytes.Equal(got, append(prefix, pt...)) {
			t.Fatalf("Cipher.Open of Seal output: %q, %v", got, err)
		}
		if _, err := c.Open(nil, sealed, []byte("another key")); err != ErrCorrupt {
			t.Fatalf("Cipher.Open with the wrong AD: %v", err)
		}
	}
	if _, err := c.Open(nil, []byte("short"), ad); err != ErrCorrupt {
		t.Fatalf("Cipher.Open of a truncated record: %v", err)
	}
	if _, err := NewCipher([]byte("short")); err != ErrBadKeySize {
		t.Fatalf("NewCipher with a short key: %v", err)
	}
}

// OpenInPlace answers as Open does, writes only inside the sealed slice it
// is given, and hands back a plaintext that cannot be appended to over the
// tag behind it.
func TestOpenInPlaceMatchesOpen(t *testing.T) {
	key, ad := testKey(4), []byte("user:bob:phone")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("personal data "), 40)} {
		sealed, err := c.Seal(nil, pt, ad)
		if err != nil {
			t.Fatal(err)
		}
		// The record sits between two neighbours in a shared buffer.
		buf := append(append([]byte("before|"), sealed...), "|after"...)
		rec := buf[len("before|") : len(buf)-len("|after")]
		got, err := c.OpenInPlace(rec, ad)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("OpenInPlace: %q, %v", got, err)
		}
		if len(pt) > 0 && &got[0] != &rec[12] {
			t.Fatal("plaintext is not opened in place behind the nonce")
		}
		if cap(got) != len(got) {
			t.Fatalf("plaintext capacity %d, length %d", cap(got), len(got))
		}
		if !bytes.HasPrefix(buf, []byte("before|")) || !bytes.HasSuffix(buf, []byte("|after")) {
			t.Fatalf("OpenInPlace wrote outside its record: %q", buf)
		}
		if _, err := c.OpenInPlace(append([]byte(nil), sealed...), []byte("another key")); err != ErrCorrupt {
			t.Fatalf("OpenInPlace with the wrong AD: %v", err)
		}
	}
	if _, err := c.OpenInPlace([]byte("short"), ad); err != ErrCorrupt {
		t.Fatalf("OpenInPlace of a truncated record: %v", err)
	}
}

// The record format did not move: ciphertext written by the commit before
// the prepared cipher existed (its Seal, key 0x42…, AD as below) still opens.
func TestOpenCiphertextSealedByParentCommit(t *testing.T) {
	sealed, err := hex.DecodeString("923929d582be1943413f5ab2e2684bf9922c64545d0c655140282eb18cbf1509a0b5d2d16978d10c686cc9dae407ecffcdacc0b339d510")
	if err != nil {
		t.Fatal(err)
	}
	key, ad, want := testKey(0x42), []byte("user:alice:email"), "sealed by the parent commit"
	if got, err := Open(key, sealed, ad); err != nil || string(got) != want {
		t.Fatalf("Open: %q, %v", got, err)
	}
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Open(nil, sealed, ad); err != nil || string(got) != want {
		t.Fatalf("Cipher.Open: %q, %v", got, err)
	}
}

// CipherFor is the read side of the ring (never creates a key, reports the
// key's epoch); SealerFor is CipherFor plus creation, at epoch 0; ImportAt
// installs a key at the epoch it was made at.
func TestKeyringCipherForAndSealerFor(t *testing.T) {
	kr, err := NewKeyring(testKey(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := kr.CipherFor("alice"); ok {
		t.Fatal("CipherFor invented a key")
	}
	c1, e1, wrapped, err := kr.SealerFor("alice")
	if err != nil || wrapped == nil || e1 != 0 {
		t.Fatalf("first SealerFor: epoch %d wrapped %v err %v", e1, wrapped != nil, err)
	}
	sealed, err := c1.Seal(nil, []byte("v"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	opens := func(c Cipher) bool {
		got, err := c.Open(nil, sealed, []byte("k"))
		return err == nil && string(got) == "v"
	}
	c2, e2, again, err := kr.SealerFor("alice")
	if err != nil || again != nil || e2 != 0 || !opens(c2) {
		t.Fatalf("second SealerFor: epoch %d wrapped %v err %v", e2, again != nil, err)
	}
	c3, e3, ok := kr.CipherFor("alice")
	if !ok || e3 != 0 || !opens(c3) {
		t.Fatalf("CipherFor: epoch %d ok %v", e3, ok)
	}

	kr.Shred("alice")
	if _, e, ok := kr.CipherFor("alice"); ok || e != 0 {
		t.Fatalf("CipherFor after Shred: epoch %d ok %v", e, ok)
	}
	if err := kr.ImportAt("alice", wrapped, 3); err != nil {
		t.Fatal(err)
	}
	c4, e4, ok := kr.CipherFor("alice")
	if !ok || e4 != 3 || !opens(c4) || !kr.RecordLive("alice", 3) || kr.RecordLive("alice", 0) {
		t.Fatalf("CipherFor after ImportAt at 3: epoch %d ok %v", e4, ok)
	}
	if e, ok := kr.KeyEpoch("alice"); !ok || e != 3 {
		t.Fatalf("KeyEpoch after ImportAt at 3: %d, %v", e, ok)
	}
}

// TestEnsureFreshOwnerAllocs pins what making a fresh owner's key allocates:
// the key, its wrapped form and the caller's copy, with the ring's map
// growth averaged in. The master key's cipher is built once, in NewKeyring,
// so no Ensure expands an AES schedule: building it per call, under the
// ring's write lock, cost two allocations more (6).
func TestEnsureFreshOwnerAllocs(t *testing.T) {
	kr := newTestKeyring(t)
	const runs = 1000
	owners := make([]string, runs+1)
	for i := range owners {
		owners[i] = "owner-" + hex.EncodeToString([]byte{byte(i >> 8), byte(i)})
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, _, created, err := kr.Ensure(owners[i]); err != nil || !created {
			t.Fatalf("Ensure(%s): created=%v err=%v", owners[i], created, err)
		}
		i++
	})
	if got > 4 {
		t.Fatalf("Ensure of a fresh owner: %.1f allocations, budget 4", got)
	}
}
