package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"
)

// Record-level ("key-level") encryption: each logical owner (a data
// subject) gets a data key; records are sealed with AES-GCM under that
// key. This mirrors the Themis-style per-record encryption the paper
// mentions as the alternative to LUKS+TLS.

// ErrCorrupt is returned when an authenticated record fails to open.
var ErrCorrupt = errors.New("cryptoutil: ciphertext corrupt or wrong key")

// SealOverhead is how many bytes a sealed record is longer than its
// plaintext: the GCM nonce in front, the tag behind.
const SealOverhead = 12 + 16

// Cipher is the prepared form of one data key: its AES key schedule and GCM
// tables, built once and used for every record sealed or opened under the
// key. A Cipher holds the expanded key, so whoever keeps one past a call
// must be able to drop it when the key is destroyed: the keyring's cache
// (Keyring.CipherFor) is the one place that does. The zero Cipher is not
// usable.
type Cipher struct {
	aead cipher.AEAD
}

// NewCipher prepares AES-256-GCM under key.
func NewCipher(key []byte) (Cipher, error) {
	if len(key) != BlockCipherKeySize {
		return Cipher{}, ErrBadKeySize
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return Cipher{}, err
	}
	aead, err := cipher.NewGCM(b)
	return Cipher{aead: aead}, err
}

// Seal appends nonce||ciphertext of plaintext to dst and returns the
// extended slice. The format is the one the package-level Seal writes.
func (c Cipher) Seal(dst, plaintext, additionalData []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if need := len(plaintext) + SealOverhead; cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	nonce := dst[len(dst) : len(dst)+ns]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("cryptoutil: nonce: %w", err)
	}
	return c.aead.Seal(dst[:len(dst)+ns], nonce, plaintext, additionalData), nil
}

// Open appends the plaintext of a sealed record to dst and returns the
// extended slice. sealed is only read, so it may be a slice lent by the
// engine.
func (c Cipher) Open(dst, sealed, additionalData []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(sealed) < ns {
		return nil, ErrCorrupt
	}
	out, err := c.aead.Open(dst, sealed[:ns], sealed[ns:], additionalData)
	if err != nil {
		return nil, ErrCorrupt
	}
	return out, nil
}

// OpenInPlace opens a sealed record in its own memory: the plaintext
// overwrites the ciphertext right behind the nonce and is returned as a slice
// of sealed with no spare capacity; the nonce and the tag stay where they
// were, around it. sealed must be the caller's own copy, never a slice lent
// by the engine; after a failure its contents are undefined.
func (c Cipher) OpenInPlace(sealed, additionalData []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(sealed) < ns {
		return nil, ErrCorrupt
	}
	ct := sealed[ns:]
	out, err := c.aead.Open(ct[:0], sealed[:ns], ct, additionalData)
	if err != nil {
		return nil, ErrCorrupt
	}
	return out[:len(out):len(out)], nil
}

// Seal encrypts plaintext with AES-256-GCM under key, prepending the nonce.
func Seal(key, plaintext, additionalData []byte) ([]byte, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Seal(nil, plaintext, additionalData)
}

// Open decrypts a record produced by Seal.
func Open(key, sealed, additionalData []byte) ([]byte, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Open(nil, sealed, additionalData)
}

// Keyring manages per-owner data keys wrapped under a master key. Shredding
// a key makes every record sealed under it permanently unreadable — the
// crypto-erasure fast path for GDPR Article 17.
//
// Each key carries the epoch it was made at. Records remember the epoch they
// were sealed under, so the store can tell a record its owner's key opens
// (same epoch) from dead ciphertext without attempting a decryption. The
// ring keeps keys only: whether an owner without a key is erased is the
// store's to know (its owner record), and the ring makes a key for whoever
// asks.
type Keyring struct {
	mu     sync.RWMutex
	master Cipher             // the master key's, built once: it wraps every data key
	keys   map[string]dataKey // owner -> data key (unwrapped, in memory)

	// ciphers caches prepared ciphers, direct-mapped by owner hash. A slot
	// is filled only while mu is read-held and emptied by whoever changes
	// the owner's key while holding mu for writing (Shred, ImportAt), so:
	// when Shred returns, no slot and no map of the ring references the
	// owner's key in any form.
	ciphers      [cipherSlots]cipherSlot
	seed         maphash.Seed
	hits, misses atomic.Uint64
}

// dataKey is one owner's data key and the epoch it was made at.
type dataKey struct {
	k     []byte
	epoch uint64
}

// cipherSlots is how many prepared ciphers a keyring keeps: a constant, not
// an option. A slot is 48 B and a prepared AES-256-GCM cipher about 1 KB, so
// the cache is near 1 MB when full. Measured on the repo benchmark (5 000
// owners on zipfian keys for core-mixed and wire-read, 200 owners for
// rights-under-write; CHANGES.md PR 22): 1 024 slots serve 68 %, 65 % and
// 92 % of lookups from the cache and cut the bytes core-mixed allocates per
// operation from 1 968 to 1 032; 4 096 slots serve 85 % of core-mixed's for
// 1.5 MB more live heap and no latency gain this box can resolve. Read
// keyring_cipher_hits and keyring_cipher_misses (INFO erasure) before
// changing it.
const cipherSlots = 1024

// cipherSlot is one cache entry: the cipher of owner's key at epoch.
type cipherSlot struct {
	mu    sync.Mutex
	owner string
	epoch uint64
	c     Cipher
}

// NewKeyring creates a keyring rooted at the given master key.
func NewKeyring(master []byte) (*Keyring, error) {
	m, err := NewCipher(master)
	if err != nil {
		return nil, err
	}
	return &Keyring{
		master: m,
		keys:   make(map[string]dataKey),
		seed:   maphash.MakeSeed(),
	}, nil
}

func (kr *Keyring) slotFor(owner string) *cipherSlot {
	return &kr.ciphers[maphash.String(kr.seed, owner)%cipherSlots]
}

// cipherLocked returns the prepared cipher of dk, owner's data key, from the
// cache or built and installed there. Callers hold kr.mu (reading suffices)
// from the read of dk until this returns, so nothing that changes the
// owner's key, all of which evict under the write lock, can be followed by
// the install of a cipher it has destroyed.
func (kr *Keyring) cipherLocked(owner string, dk dataKey) Cipher {
	sl := kr.slotFor(owner)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.owner == owner && sl.epoch == dk.epoch && sl.c.aead != nil { // an empty slot has neither
		kr.hits.Add(1)
		return sl.c
	}
	kr.misses.Add(1)
	c, err := NewCipher(dk.k)
	if err != nil {
		// Every key in the ring was generated here or checked on import.
		panic("cryptoutil: keyring holds an unusable key: " + err.Error())
	}
	sl.owner, sl.epoch, sl.c = owner, dk.epoch, c
	return c
}

// evictLocked empties owner's cache slot if it is owner's. Callers hold
// kr.mu for writing.
func (kr *Keyring) evictLocked(owner string) {
	sl := kr.slotFor(owner)
	sl.mu.Lock()
	if sl.owner == owner {
		sl.owner, sl.epoch, sl.c = "", 0, Cipher{}
	}
	sl.mu.Unlock()
}

// CipherStats reports how many prepared-cipher lookups the cache served and
// how many built a cipher.
func (kr *Keyring) CipherStats() (hits, misses uint64) {
	return kr.hits.Load(), kr.misses.Load()
}

// CipherFor is the read-side lookup: the prepared cipher of owner's data key
// and the epoch it was made at, from one locked read. ok is false when the
// owner has no key (never had one, or it was shredded), i.e. when nothing
// sealed for the owner can be opened. The Cipher is the caller's for the
// call it is making, as a key copy from Ensure would be: a Shred that lands
// meanwhile is seen by RecordLive(owner, epoch).
func (kr *Keyring) CipherFor(owner string) (c Cipher, epoch uint64, ok bool) {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	dk, ok := kr.keys[owner]
	if !ok {
		return Cipher{}, 0, false
	}
	return kr.cipherLocked(owner, dk), dk.epoch, true
}

// SealerFor is the write-side lookup: CipherFor, generating the key on
// first use, at epoch 0. It returns the cipher, its epoch and the wrapped
// key (non-nil exactly when this call created the key; callers journal it
// with the epoch so the keyring survives restarts). Callers refuse an
// erased owner before they ask: the ring would make it a key.
func (kr *Keyring) SealerFor(owner string) (Cipher, uint64, []byte, error) {
	if c, epoch, ok := kr.CipherFor(owner); ok {
		return c, epoch, nil, nil
	}
	kr.mu.Lock()
	defer kr.mu.Unlock()
	dk, wrapped, err := kr.ensureLocked(owner)
	if err != nil {
		return Cipher{}, 0, nil, err
	}
	return kr.cipherLocked(owner, dk), dk.epoch, wrapped, nil
}

// KeyFor returns the data key for owner, generating a fresh random key on
// first use. Keys are random (not derived) so that shredding is
// irreversible; persist them across restarts with Ensure/ImportAt.
func (kr *Keyring) KeyFor(owner string) ([]byte, error) {
	k, _, _, err := kr.Ensure(owner)
	return k, err
}

// Ensure returns owner's data key, generating one if needed. It also
// returns the key wrapped (sealed) under the master key — callers journal
// the wrapped form when created is true so the keyring survives restarts —
// and whether this call created the key. The returned key is a defensive
// copy: a concurrent Shred zeroes only the ring's own slice, never one a
// reader is still sealing with.
func (kr *Keyring) Ensure(owner string) (key, wrapped []byte, created bool, err error) {
	kr.mu.RLock()
	if dk, ok := kr.keys[owner]; ok {
		key = append([]byte(nil), dk.k...)
	}
	kr.mu.RUnlock()
	if key != nil {
		return key, nil, false, nil
	}
	kr.mu.Lock()
	defer kr.mu.Unlock()
	dk, wrapped, err := kr.ensureLocked(owner)
	if err != nil {
		return nil, nil, false, err
	}
	return append([]byte(nil), dk.k...), wrapped, wrapped != nil, nil
}

// ensureLocked returns owner's key, generating it at epoch 0 on first use;
// wrapped is non-nil exactly when it did. Callers hold kr.mu for writing;
// the key returned is the ring's own.
func (kr *Keyring) ensureLocked(owner string) (dk dataKey, wrapped []byte, err error) {
	if dk, ok := kr.keys[owner]; ok {
		return dk, nil, nil
	}
	k := make([]byte, BlockCipherKeySize)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return dataKey{}, nil, fmt.Errorf("cryptoutil: keygen: %w", err)
	}
	w, err := kr.master.Seal(nil, k, []byte("wrap:"+owner))
	if err != nil {
		return dataKey{}, nil, err
	}
	dk = dataKey{k: k}
	kr.keys[owner] = dk
	return dk, w, nil
}

// ImportAt installs a previously wrapped data key for owner, made at epoch
// (the key file at Open, a key on the replication stream), replacing the
// key the ring held, so every surviving record is judged against the key it
// was sealed under.
func (kr *Keyring) ImportAt(owner string, wrapped []byte, epoch uint64) error {
	k, err := kr.master.Open(nil, wrapped, []byte("wrap:"+owner))
	if err == nil && len(k) != BlockCipherKeySize {
		err = ErrBadKeySize
	}
	if err != nil {
		return err
	}
	kr.mu.Lock()
	defer kr.mu.Unlock()
	kr.destroyLocked(owner) // the slot may hold the key this one replaces
	kr.keys[owner] = dataKey{k: k, epoch: epoch}
	return nil
}

// KeyEpoch reports the epoch owner's key was made at, and whether the ring
// holds a key for owner at all.
func (kr *Keyring) KeyEpoch(owner string) (epoch uint64, ok bool) {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	dk, ok := kr.keys[owner]
	return dk.epoch, ok
}

// ExportAll returns every owner key wrapped under the master key, for
// a replica's full sync.
func (kr *Keyring) ExportAll() (map[string][]byte, error) {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	out := make(map[string][]byte, len(kr.keys))
	for o, dk := range kr.keys {
		w, err := kr.master.Seal(nil, dk.k, []byte("wrap:"+o))
		if err != nil {
			return nil, err
		}
		out[o] = w
	}
	return out, nil
}

// Shred destroys owner's data key. Records sealed under it become
// unrecoverable, which constitutes erasure for Article 17 purposes even
// before the ciphertext itself is reclaimed. The key is removed from the
// ring and its prepared cipher from the cache, under the write lock, before
// it is zeroed: when Shred returns, nothing the ring holds references the
// key in any form, and nothing can install it again (cipherLocked). What
// remains is what callers took before: a key copy or a Cipher held for the
// call in flight.
func (kr *Keyring) Shred(owner string) {
	kr.mu.Lock()
	defer kr.mu.Unlock()
	kr.destroyLocked(owner)
}

// destroyLocked removes owner's key from the ring and the cache and zeroes
// it. Callers hold kr.mu for writing.
func (kr *Keyring) destroyLocked(owner string) {
	if dk, ok := kr.keys[owner]; ok {
		delete(kr.keys, owner)
		clear(dk.k)
	}
	kr.evictLocked(owner)
}

// RecordLive reports whether a record sealed under the given epoch for
// owner is still readable: the ring holds owner's key and it was made at
// that epoch. A false result means the ciphertext is dead — its key was
// destroyed.
func (kr *Keyring) RecordLive(owner string, epoch uint64) bool {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	dk, ok := kr.keys[owner]
	return ok && dk.epoch == epoch
}

// RandomKey generates a fresh random 32-byte key.
func RandomKey() ([]byte, error) {
	k := make([]byte, BlockCipherKeySize)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return nil, err
	}
	return k, nil
}
