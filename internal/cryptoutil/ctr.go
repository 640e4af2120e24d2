// Package cryptoutil supplies the two encryption substrates the paper's
// §4.2 evaluates:
//
//   - a block-layer cipher (AES-CTR keyed by byte offset) standing in for
//     LUKS/dm-crypt: every byte persisted to disk passes through it, so the
//     at-rest encryption cost lands on the same code path it does under
//     LUKS;
//   - record-level envelope encryption (AES-GCM with per-user data keys
//     wrapped by a master key), standing in for the "key-level encryption"
//     alternative the paper probed with the Themis library. Deleting a
//     user's data key crypto-shreds every record it protected, which the
//     compliance layer uses as a fast path for the right to be forgotten.
package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// BlockCipherKeySize is the AES-256 key length used throughout.
const BlockCipherKeySize = 32

// ErrBadKeySize is returned when a key is not BlockCipherKeySize bytes.
var ErrBadKeySize = errors.New("cryptoutil: key must be 32 bytes")

// OffsetCipher encrypts and decrypts byte ranges of a logically infinite
// stream addressed by absolute offset, the way a block-device cipher
// addresses sectors. Because CTR mode is XOR-symmetric, Apply both encrypts
// and decrypts.
type OffsetCipher struct {
	block cipher.Block
}

// NewOffsetCipher creates an offset-addressed AES-256-CTR cipher.
func NewOffsetCipher(key []byte) (*OffsetCipher, error) {
	if len(key) != BlockCipherKeySize {
		return nil, ErrBadKeySize
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &OffsetCipher{block: b}, nil
}

// Apply XORs data (in place) with the keystream positioned at the given
// absolute byte offset. Calling Apply twice at the same offset restores the
// original bytes.
func (c *OffsetCipher) Apply(data []byte, offset int64) {
	if len(data) == 0 {
		return
	}
	bs := int64(c.block.BlockSize()) // 16
	var ctr, ks [16]byte
	blockNo := offset / bs
	within := int(offset % bs)
	for len(data) > 0 {
		binary.BigEndian.PutUint64(ctr[8:], uint64(blockNo))
		c.block.Encrypt(ks[:], ctr[:])
		n := int(bs) - within
		if n > len(data) {
			n = len(data)
		}
		for i := 0; i < n; i++ {
			data[i] ^= ks[within+i]
		}
		data = data[n:]
		within = 0
		blockNo++
	}
}

// Writer encrypts through to an underlying io.Writer, tracking the absolute
// offset so appends continue the keystream correctly (e.g. reopening an
// AOF). Writer buffers nothing.
type Writer struct {
	w       io.Writer
	c       *OffsetCipher
	offset  int64
	scratch []byte
}

// NewWriter creates an encrypting writer positioned at offset (the current
// size of the underlying file for appends).
func NewWriter(w io.Writer, c *OffsetCipher, offset int64) *Writer {
	return &Writer{w: w, c: c, offset: offset}
}

// Write implements io.Writer. The input slice is not modified.
func (ew *Writer) Write(p []byte) (int, error) {
	if cap(ew.scratch) < len(p) {
		ew.scratch = make([]byte, len(p))
	}
	buf := ew.scratch[:len(p)]
	copy(buf, p)
	ew.c.Apply(buf, ew.offset)
	n, err := ew.w.Write(buf)
	ew.offset += int64(n)
	if err != nil {
		return n, fmt.Errorf("cryptoutil: encrypted write: %w", err)
	}
	return n, nil
}
