// Package aof implements Redis-style append-only-file persistence. It is
// the subsystem the paper's §4.1 piggybacks on for GDPR monitoring: every
// mutating command (and, in audit mode, every read) is appended to the file
// as a RESP-encoded command, replayable at startup.
//
// Like Redis, the log supports three fsync policies:
//
//   - SyncAlways:   fsync after every append — the "strict real-time
//     compliance" point that costs Redis 20× in the paper;
//   - SyncEverySec: the file fsyncs itself once per second — the
//     "eventual compliance" point, 6× faster, risking ≤1 s of log loss;
//   - SyncNo:       leave flushing to the OS.
//
// The log is a File (file.go) with a RESP encoder, and the audit trail
// writes through a File too: transparently encrypted at rest through a
// cryptoutil.OffsetCipher (the LUKS stand-in), with a sticky first error.
// A File applies its policy itself, running the once-a-second Sync of
// SyncEverySec, and fsyncs outside the lock its appends take.
// Rewrite compacts it so that deleted personal data does not persist in the
// log (§4.3's second concern). Beside it, Keys (keys.go) holds the
// envelope keyring's wrapped data keys in slots an erasure zeroes in place;
// no wrapped key enters the log, and the log fsyncs Keys before itself.
package aof

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/resp"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// Available fsync policies, mirroring Redis's appendfsync option.
const (
	// SyncNo lets the OS decide when to flush.
	SyncNo SyncPolicy = iota
	// SyncEverySec flushes and fsyncs once per second, off the append path.
	SyncEverySec
	// SyncAlways flushes and fsyncs after every append.
	SyncAlways
)

// String returns the redis.conf spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEverySec:
		return "everysec"
	default:
		return "no"
	}
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy; default SyncNo.
	Policy SyncPolicy
	// Key, if non-nil, encrypts the file at rest with AES-256-CTR keyed by
	// byte offset (the LUKS/dm-crypt stand-in). Must be 32 bytes.
	Key []byte
}

// Log is an append-only command log: a File with a RESP encoder and
// Rewrite. All methods are safe for concurrent use.
type Log struct {
	*File
	enc       *resp.Writer // encodes commands into the File, under its lock
	rewriteMu sync.Mutex   // serialises Rewrite invocations
}

// Open opens (creating if necessary) the append-only file at path.
func Open(path string, opts Options) (*Log, error) {
	f, err := OpenFile(path, opts.Key, opts.Policy)
	if err != nil {
		return nil, err
	}
	return &Log{File: f, enc: resp.NewWriter(held{f})}, nil
}

// Append encodes one command and applies the fsync policy. After a write
// or fsync error it appends nothing and returns that error (LastErr).
func (l *Log) Append(name string, args ...[]byte) error {
	return l.append(func() error {
		if err := l.enc.WriteRecord(name, args); err != nil {
			return err
		}
		return l.enc.Flush() // resp buffer -> the file's buffer
	})
}

// ReplayFunc receives each command during Load. Returning an error aborts
// the replay. Every command is read into fresh buffers, so fn may keep args.
type ReplayFunc func(name string, args [][]byte) error

// Load replays every command in the file at path. A truncated final record
// (torn write at crash) stops the replay without error, matching Redis's
// aof-load-truncated behaviour; corruption before the tail is reported.
func Load(path string, key []byte, fn ReplayFunc) (replayed int, err error) {
	src, err := OpenReader(path, key)
	if err != nil {
		return 0, fmt.Errorf("aof: load: %w", err)
	}
	defer src.Close()
	r := resp.NewReader(bufio.NewReaderSize(src, 64*1024))
	for {
		args, rerr := r.ReadCommand()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				// torn tail: accept what we have
				return replayed, nil
			}
			return replayed, fmt.Errorf("aof: load after %d commands: %w", replayed, rerr)
		}
		name := string(args[0])
		if err := fn(name, args[1:]); err != nil {
			return replayed, err
		}
		replayed++
	}
}

// SnapshotFunc walks the current dataset, emitting one command per record
// through emit, for Rewrite and WriteSnapshot.
type SnapshotFunc func(emit func(name string, args ...[]byte) error) error

// WriteSnapshot writes the commands snapshot emits to path as a log Load
// reads: into a temporary file beside it, encrypted at rest under key when
// it is non-nil, fsynced, renamed over path, and the directory fsynced.
func WriteSnapshot(path string, key []byte, snapshot SnapshotFunc) error {
	c, err := newCipher(key)
	if err != nil {
		return err
	}
	tmp, err := writeTemp(filepath.Dir(path), c, snapshot)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// writeTemp writes the commands snapshot emits to a new temporary file in
// dir, encrypted under c when it is non-nil, fsyncs it and returns its
// path, for the caller to rename into place.
func writeTemp(dir string, c *cryptoutil.OffsetCipher, snapshot SnapshotFunc) (string, error) {
	f, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(encrypting(f, c, 0), 256*1024)
	enc := resp.NewWriter(bw)
	err = snapshot(func(name string, args ...[]byte) error { return enc.WriteRecord(name, args) })
	if err == nil {
		err = errors.Join(enc.Flush(), bw.Flush(), f.Sync())
	}
	if err = errors.Join(err, f.Close()); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// SyncDir fsyncs the directory dir, so that a rename into it or a removal
// from it survives a power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Rewrite compacts the log: it writes a fresh file containing only the
// commands needed to reconstruct the current dataset (via snapshot), fsyncs
// it, renames it over the old file and fsyncs the directory. After Rewrite
// returns, previously deleted data no longer persists anywhere in the log —
// the guarantee §4.3 calls out as required for GDPR deletion — and a power
// loss cannot bring the old log back.
//
// Locking: the snapshot is generated and written to a temporary file
// *without* holding the log lock (so snapshot may freely read the engine,
// which itself journals into this log — no lock-order cycle); the lock is
// taken only for the final swap. Appends that land between snapshot
// generation and the swap are discarded with the old file. The compliance
// layer serialises its own writes around Rewrite, so the only records in
// that window are engine-generated expiry deletions, whose loss is benign:
// the rewritten file carries the keys' original deadlines and they expire
// again on replay.
func (l *Log) Rewrite(snapshot SnapshotFunc) error {
	l.rewriteMu.Lock()
	defer l.rewriteMu.Unlock()
	tmp, err := writeTemp(filepath.Dir(l.path), l.cipher, snapshot)
	if err != nil {
		return fmt.Errorf("aof: rewrite: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename
	return l.swap(tmp)
}
