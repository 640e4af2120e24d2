// Package aof implements Redis-style append-only-file persistence. It is
// the subsystem the paper's §4.1 piggybacks on for GDPR monitoring: every
// mutating command (and, in audit mode, every read) is appended to the file
// as a RESP-encoded command, replayable at startup.
//
// Like Redis, the log supports three fsync policies:
//
//   - SyncAlways:   fsync after every append — the "strict real-time
//     compliance" point that costs Redis 20× in the paper;
//   - SyncEverySec: a background flusher fsyncs once per second — the
//     "eventual compliance" point, 6× faster, risking ≤1 s of log loss;
//   - SyncNo:       leave flushing to the OS.
//
// The file can be transparently encrypted at rest through an
// cryptoutil.OffsetCipher (the LUKS stand-in), and compacted with Rewrite
// so that deleted personal data does not persist in the log (§4.3's second
// concern).
package aof

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/resp"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// Available fsync policies, mirroring Redis's appendfsync option.
const (
	// SyncNo lets the OS decide when to flush.
	SyncNo SyncPolicy = iota
	// SyncEverySec flushes and fsyncs once per second from a background
	// goroutine.
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

// Log is an append-only command log. All methods are safe for concurrent
// use.
type Log struct {
	mu        sync.Mutex
	rewriteMu sync.Mutex // serialises Rewrite invocations
	path      string
	f         *os.File
	w         *bufio.Writer // wraps the (possibly encrypting) writer
	enc       *resp.Writer  // encodes commands into w
	cipher    *cryptoutil.OffsetCipher
	policy    SyncPolicy
	size      int64 // logical bytes appended (plaintext == ciphertext length)
	dirty     bool
	appends   uint64
	syncs     uint64
	err       error // first write or fsync error, sticky (LastErr)

	stopFlusher chan struct{}
	flusherDone chan struct{}
	closed      bool
}

// Open opens (creating if necessary) the append-only file at path.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("aof: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("aof: stat: %w", err)
	}
	l := &Log{path: path, f: f, policy: opts.Policy, size: st.Size()}
	if opts.Key != nil {
		l.cipher, err = cryptoutil.NewOffsetCipher(opts.Key)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	l.initWriters()
	if opts.Policy == SyncEverySec {
		l.stopFlusher = make(chan struct{})
		l.flusherDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

func (l *Log) initWriters() {
	var sink io.Writer = l.f
	if l.cipher != nil {
		sink = cryptoutil.NewWriter(l.f, l.cipher, l.size)
	}
	l.w = bufio.NewWriterSize(sink, 64*1024)
	l.enc = resp.NewWriter(countingWriter{l})
}

// countingWriter routes the RESP encoder's output into the buffered
// (possibly encrypted) sink while tracking the logical size.
type countingWriter struct{ l *Log }

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.l.w.Write(p)
	cw.l.size += int64(n)
	return n, err
}

// Append encodes one command and applies the fsync policy. After a write
// or fsync error it appends nothing and returns that error (LastErr).
func (l *Log) Append(name string, args ...[]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("aof: closed")
	}
	if l.err != nil {
		return l.err
	}
	if err := l.enc.WriteRecord(name, args); err != nil {
		return l.fail(err)
	}
	if err := l.enc.Flush(); err != nil { // resp buffer -> bufio buffer
		return l.fail(err)
	}
	l.appends++
	l.dirty = true
	if l.policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// Sync forces buffered data to stable storage regardless of policy. After
// a write or fsync error it returns that error (LastErr).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil || !l.dirty {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.dirty = false
	l.syncs++
	return nil
}

// fail records err as the log's first error, if it is, and returns the
// first. Callers hold l.mu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("aof: %w", err)
	}
	return l.err
}

// LastErr returns the first write or fsync error since Open, or nil. Every
// Append and Sync after it returns it too: a retried fsync can report
// success for pages the kernel already dropped, so nothing after the first
// failure counts as durable.
func (l *Log) LastErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Log) flushLoop() {
	defer close(l.flusherDone)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlusher:
			return
		case <-t.C:
			l.mu.Lock()
			_ = l.syncLocked() // sticks, for LastErr
			l.mu.Unlock()
		}
	}
}

// Size returns the logical size of the log in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Appends returns the number of commands appended since Open.
func (l *Log) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Syncs returns the number of fsync calls issued since Open.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Close flushes, fsyncs, stops the background flusher, and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopFlusher
	done := l.flusherDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	errSync := l.syncLocked()
	errClose := l.f.Close()
	if errSync != nil {
		return errSync
	}
	return errClose
}

// ReplayFunc receives each command during Load. Returning an error aborts
// the replay. Every command is read into fresh buffers, so fn may keep args.
type ReplayFunc func(name string, args [][]byte) error

// Load replays every command in the file at path. A truncated final record
// (torn write at crash) stops the replay without error, matching Redis's
// aof-load-truncated behaviour; corruption before the tail is reported.
func Load(path string, key []byte, fn ReplayFunc) (replayed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("aof: load: %w", err)
	}
	defer f.Close()

	var src io.Reader = f
	if key != nil {
		c, cerr := cryptoutil.NewOffsetCipher(key)
		if cerr != nil {
			return 0, cerr
		}
		src = cryptoutil.NewReader(f, c)
	}
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
	var c *cryptoutil.OffsetCipher
	if key != nil {
		var err error
		if c, err = cryptoutil.NewOffsetCipher(key); err != nil {
			return err
		}
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
	var sink io.Writer = f
	if c != nil {
		sink = cryptoutil.NewWriter(f, c, 0)
	}
	bw := bufio.NewWriterSize(sink, 256*1024)
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

	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return errors.New("aof: closed")
	}

	dir := filepath.Dir(l.path)
	tmp, err := writeTemp(dir, l.cipher, snapshot)
	if err != nil {
		return fmt.Errorf("aof: rewrite: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename

	// Swap: rename the new file over the old, drop the old one with what was
	// appended to it since the snapshot, and reopen for append.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("aof: closed")
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("aof: rewrite rename: %w", err)
	}
	l.f.Close()
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("aof: rewrite reopen: %w", err)
	}
	l.f, l.dirty = f, false
	if l.size, err = f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("aof: rewrite reopen: %w", err)
	}
	l.initWriters()
	return SyncDir(dir)
}
