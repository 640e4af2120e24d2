package aof

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdprstore/internal/cryptoutil"
)

var errClosed = errors.New("aof: closed")

// File is a durable append-only file, encrypted at rest by byte offset
// under a non-nil key (the LUKS stand-in): the command log's and the audit
// trail's. It applies its SyncPolicy itself, SyncEverySec's loop included,
// and fsyncs outside the lock appends and readers take. All methods are
// safe for concurrent use. The first write or fsync error sticks, and every
// later append and sync returns it: a retried fsync can report success for
// pages the kernel already dropped, and a record appended past a lost range
// sits behind a hole that replay and trail scans refuse as mid-file damage.
type File struct {
	mu      sync.Mutex // the buffer, the counters, err and closed
	syncMu  sync.Mutex // one fsync at a time, never beside a swap or Close
	path    string
	f       *os.File                 // replaced and closed under syncMu and mu
	cipher  *cryptoutil.OffsetCipher // nil: plaintext
	w       *bufio.Writer            // over the (encrypting) writer positioned at size
	size    int64                    // logical bytes appended (plaintext == ciphertext length)
	dirty   bool
	always  bool // SyncAlways: each append returns after an fsync covering it
	appends uint64
	syncs   uint64
	err     error // first write or fsync error, sticky
	closed  bool
	first   *Keys         // fsynced before this file is, and before a swap; set under syncMu
	stop    chan struct{} // SyncEverySec: closed by Close to stop the loop
	stopped chan struct{} // closed by the loop as it exits
}

// OpenFile opens (creating if necessary) the file at path for appending
// under policy. A non-nil key must be 32 bytes.
func OpenFile(path string, key []byte, policy SyncPolicy) (*File, error) {
	c, err := newCipher(key)
	if err != nil {
		return nil, err
	}
	f := &File{path: path, cipher: c, always: policy == SyncAlways}
	if err := f.open(); err != nil {
		return nil, fmt.Errorf("aof: open: %w", err)
	}
	if policy == SyncEverySec {
		f.stop, f.stopped = make(chan struct{}), make(chan struct{})
		go f.everySec()
	}
	return f, nil
}

// everySec is SyncEverySec's schedule: a Sync a second until Close.
func (f *File) everySec() {
	defer close(f.stopped)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			_ = f.Sync() // sticks, for LastErr
		}
	}
}

func newCipher(key []byte) (*cryptoutil.OffsetCipher, error) {
	if key == nil {
		return nil, nil
	}
	return cryptoutil.NewOffsetCipher(key)
}

// open opens f.path for append and positions the writer at its end.
func (f *File) open() error {
	fd, err := os.OpenFile(f.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	st, err := fd.Stat()
	if err != nil {
		fd.Close()
		return err
	}
	f.f, f.size = fd, st.Size()
	f.initWriter()
	return nil
}

func (f *File) initWriter() {
	f.w = bufio.NewWriterSize(encrypting(f.f, f.cipher, f.size), 64*1024)
}

// encrypting returns w, encrypting under c from offset when c is non-nil.
func encrypting(w io.Writer, c *cryptoutil.OffsetCipher, offset int64) io.Writer {
	if c == nil {
		return w
	}
	return cryptoutil.NewWriter(w, c, offset)
}

// held appends to a File whose lock its caller holds.
type held struct{ f *File }

func (h held) Write(p []byte) (int, error) {
	n, err := h.f.w.Write(p)
	h.f.size += int64(n)
	return n, err
}

// Append appends p, buffered unless the policy is SyncAlways: Flush or
// Sync push it on.
func (f *File) Append(p []byte) error {
	return f.append(func() error { _, err := held{f}.Write(p); return err })
}

// append runs write, which appends through held{f}, under the file's lock,
// then, under SyncAlways, syncs. After the first error it runs nothing and
// returns that error.
func (f *File) append(write func() error) error {
	f.mu.Lock()
	err := f.err
	if f.closed {
		err = errClosed
	} else if err == nil {
		if err = f.fail(write()); err == nil {
			f.appends++
			f.dirty = true
		}
	}
	f.mu.Unlock()
	if err != nil || !f.always {
		return err
	}
	return f.Sync()
}

// Flush pushes buffered bytes to the OS without an fsync, for readers of
// the file. After the first error there is nothing left to push: nil.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil && f.dirty {
		return f.fail(f.w.Flush())
	}
	return nil
}

// Sync flushes, then fsyncs the key file (SyncFirst) and the file. After
// the first error it returns that error.
func (f *File) Sync() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	return f.sync()
}

// sync pushes the buffer on under mu and fsyncs outside it, under the
// syncMu its callers hold: no swap or Close meets the fsync, and an append
// whose bytes a concurrent sync took waits on syncMu for its fsync.
func (f *File) sync() error {
	f.mu.Lock()
	flushed, fd := f.err == nil && f.dirty, f.f
	if flushed {
		f.dirty = false
		flushed = f.fail(f.w.Flush()) == nil
	}
	err := f.err
	f.mu.Unlock()
	if !flushed {
		return err
	}
	return f.fsync(fd)
}

// fsync fsyncs the key file (SyncFirst), then fd when it is non-nil, and
// records the outcome: an error sticks. Callers hold syncMu and not mu.
func (f *File) fsync(fd *os.File) error {
	var err error
	if f.first != nil {
		err = f.first.Sync()
	}
	if err == nil && fd != nil {
		err = fd.Sync()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil && fd != nil {
		f.syncs++
	}
	return f.fail(err)
}

// SyncFirst makes every fsync of the file, and every swap, fsync k first:
// a record that names a data key is never durable before the key.
func (f *File) SyncFirst(k *Keys) {
	f.syncMu.Lock()
	f.first = k
	f.syncMu.Unlock()
}

// fail records err (nil: none) as the file's first error, if it is, and
// returns the first. Callers hold f.mu.
func (f *File) fail(err error) error {
	if f.err == nil {
		f.err = err
	}
	return f.err
}

// LastErr returns the first write or fsync error since OpenFile, or nil.
func (f *File) LastErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Size returns the logical size of the file in bytes.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Appends returns the number of appends since OpenFile.
func (f *File) Appends() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends
}

// Syncs returns the number of fsyncs issued since OpenFile.
func (f *File) Syncs() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Close stops the once-a-second loop, then flushes, fsyncs and closes the
// file. Appends after it fail.
func (f *File) Close() error {
	f.mu.Lock()
	closed := f.closed
	f.closed = true
	f.mu.Unlock()
	if closed {
		return nil
	}
	if f.stop != nil {
		close(f.stop)
		<-f.stopped
	}
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	return cmp.Or(f.sync(), f.f.Close())
}

// swap renames tmp over the file, drops the old file with whatever was
// appended to it since, reopens for append and fsyncs the directory. A
// failed reopen sticks (LastErr): the file has nothing left to write to.
func (f *File) swap(tmp string) error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	if err := f.fsync(nil); err != nil {
		return err
	}
	if err := f.reopen(tmp); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(f.path))
}

// reopen renames tmp over the file and opens it for append.
func (f *File) reopen(tmp string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return fmt.Errorf("aof: rewrite rename: %w", err)
	}
	f.f.Close()
	f.dirty = false
	if err := f.open(); err != nil {
		return f.fail(fmt.Errorf("aof: rewrite reopen: %w", err))
	}
	return nil
}

// Reader reads a File's bytes back, decrypted. A missing file reads as
// empty.
type Reader struct {
	f      *os.File // nil when the file does not exist
	cipher *cryptoutil.OffsetCipher
	off    int64 // of the next Read
	size   int64
}

// OpenReader opens the file at path for reading under key (nil: plaintext).
func OpenReader(path string, key []byte) (*Reader, error) {
	c, err := newCipher(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Reader{}, nil
	}
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Reader{f: f, cipher: c, size: st.Size()}, nil
}

// Read reads the file sequentially from its start.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// ReadAt reads len(p) bytes from offset off.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if r.f == nil {
		return 0, io.EOF
	}
	n, err := r.f.ReadAt(p, off)
	if r.cipher != nil {
		r.cipher.Apply(p[:n], off)
	}
	return n, err
}

// Size returns the file's size when it was opened.
func (r *Reader) Size() int64 { return r.size }

// Close closes the file.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}
