package aof

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"

	"gdprstore/internal/cryptoutil"
)

// A key-file slot is crc32c(4) | epoch(8) | owner length(1) | wrapped key |
// owner, zero-padded; the checksum covers the rest of the slot.
const (
	KeySlotSize = 128
	// WrappedKeySize is a 32-byte data key sealed under the master key.
	WrappedKeySize = cryptoutil.SealOverhead + cryptoutil.BlockCipherKeySize
	// MaxKeyOwner is the longest owner name a slot holds.
	MaxKeyOwner = KeySlotSize - 13 - WrappedKeySize
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Keys is the one durable home of the envelope keyring's data keys: a file
// of fixed-size slots beside the AOF, one per owner with a live key, each
// holding the owner, the key's epoch and the key wrapped under the master
// key. Zero overwrites an owner's slot in place, so an erased key is gone
// from the file, not merely unlisted. Slots pass through the at-rest offset
// cipher, except a free slot: its zeros are written raw, never as the
// cipher's image of zeros, which would be the keystream at that offset.
//
// OpenKeys only reads, and writes are held in memory until Start, so a
// store whose replay is refused leaves the file as it was. The first write
// or fsync error sticks, as File's does. Methods are safe for concurrent
// use.
type Keys struct {
	mu     sync.Mutex
	path   string
	cipher *cryptoutil.OffsetCipher
	f      *os.File         // nil until Start
	held   map[int64][]byte // slot images written before Start; nil: zeros
	slot   map[string]int64 // owner -> slot index
	free   []int64          // zeroed slots, reused before the file grows
	n      int64            // slots in the file
	dirty  bool
	err    error
}

// OpenKeys scans the key file at path (missing: empty) under the at-rest
// key (nil: plaintext) and hands load each slot's owner, wrapped key and
// epoch. A slot that fails its checksum (a torn write), or is an owner's
// older duplicate (a reused slot whose zeroing was lost), is not loaded,
// and Start zeroes it.
func OpenKeys(path string, key []byte, load func(owner string, wrapped []byte, epoch uint64) error) (*Keys, error) {
	c, err := newCipher(key)
	if err != nil {
		return nil, err
	}
	r, err := OpenReader(path, nil) // raw: a free slot is raw zeros
	if err != nil {
		return nil, fmt.Errorf("aof: keys: %w", err)
	}
	defer r.Close()
	k := &Keys{path: path, cipher: c, held: map[int64][]byte{}, slot: map[string]int64{}}
	epochs := map[string]uint64{}
	br, img := bufio.NewReaderSize(r, 64*1024), make([]byte, KeySlotSize)
	for ; ; k.n++ {
		n, err := io.ReadFull(br, img)
		if err == io.EOF {
			return k, nil
		} else if err != nil && err != io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("aof: keys: %w", err)
		}
		clear(img[n:]) // a torn last slot
		if !slices.ContainsFunc(img, func(b byte) bool { return b != 0 }) {
			k.free = append(k.free, k.n)
			continue
		}
		if c != nil {
			c.Apply(img, k.n*KeySlotSize)
		}
		epoch, size := binary.BigEndian.Uint64(img[4:]), int(img[12])
		if crc32.Checksum(img[4:], castagnoli) != binary.BigEndian.Uint32(img) || size == 0 || size > MaxKeyOwner {
			k.release(k.n)
			continue
		}
		owner := string(img[13+WrappedKeySize:][:size])
		if prev, seen := k.slot[owner]; seen && epochs[owner] >= epoch {
			k.release(k.n)
			continue
		} else if seen {
			k.release(prev)
		}
		if err := load(owner, append([]byte(nil), img[13:13+WrappedKeySize]...), epoch); err != nil {
			return nil, fmt.Errorf("aof: keys: %s: %w", owner, err)
		}
		k.slot[owner], epochs[owner] = k.n, epoch
	}
}

// release frees slot i and zeroes it. Callers hold k.mu or own k.
func (k *Keys) release(i int64) error {
	k.free = append(k.free, i)
	return k.write(i, nil)
}

// Start opens the file for writing, creating it, and writes and fsyncs
// what was held since OpenKeys.
func (k *Keys) Start() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	f, err := os.OpenFile(k.path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("aof: keys: %w", err)
	}
	held := k.held
	k.f, k.held = f, nil
	for i, img := range held {
		k.write(i, img)
	}
	return k.syncLocked()
}

// Put writes owner's slot: its own if it has one, else a free one or a new
// one at the end of the file.
func (k *Keys) Put(owner string, epoch uint64, wrapped []byte) error {
	if len(owner) == 0 || len(owner) > MaxKeyOwner || len(wrapped) != WrappedKeySize {
		return fmt.Errorf("aof: keys: no slot holds owner %q with a %d-byte key", owner, len(wrapped))
	}
	img := make([]byte, KeySlotSize)
	binary.BigEndian.PutUint64(img[4:], epoch)
	img[12] = byte(len(owner))
	copy(img[13+copy(img[13:], wrapped):], owner)
	binary.BigEndian.PutUint32(img, crc32.Checksum(img[4:], castagnoli))
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.slot[owner]
	if n := len(k.free); !ok && n > 0 {
		i, k.free = k.free[n-1], k.free[:n-1]
	} else if !ok {
		i, k.n = k.n, k.n+1
	}
	k.slot[owner] = i
	return k.write(i, img)
}

// Zero overwrites owner's slot with zeros and frees it, if it has one.
func (k *Keys) Zero(owner string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.slot[owner]
	if !ok {
		return k.err
	}
	delete(k.slot, owner)
	return k.release(i)
}

// write writes the plaintext slot image img (nil: a free slot) at index i,
// encrypting it in place, or holds it until Start. Callers hold k.mu or
// own k.
func (k *Keys) write(i int64, img []byte) error {
	switch {
	case k.err != nil:
		return k.err
	case k.f == nil:
		k.held[i] = img
		return nil
	case img == nil:
		img = make([]byte, KeySlotSize)
	case k.cipher != nil:
		k.cipher.Apply(img, i*KeySlotSize)
	}
	if _, err := k.f.WriteAt(img, i*KeySlotSize); err != nil {
		k.err = fmt.Errorf("aof: keys: %w", err)
	}
	k.dirty = true
	return k.err
}

// Sync fsyncs what was written since the last Sync. After the first error
// it returns that error.
func (k *Keys) Sync() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.syncLocked()
}

func (k *Keys) syncLocked() error {
	if k.err == nil && k.dirty {
		if err := k.f.Sync(); err != nil {
			k.err = fmt.Errorf("aof: keys: %w", err)
		}
		k.dirty = false
	}
	return k.err
}

// Close fsyncs and closes the file; writes after it fail.
func (k *Keys) Close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.f == nil {
		return nil
	}
	err := errors.Join(k.syncLocked(), k.f.Close())
	k.err = errors.Join(k.err, errClosed)
	return err
}
