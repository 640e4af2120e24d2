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
)

var errClosed = errors.New("aof: closed")

// File is a durable append-only file, encrypted at rest by byte offset
// under a non-nil key (the LUKS stand-in): the command log's and the audit
// trail's. All methods are safe for concurrent use. The first write or
// fsync error sticks, and every later append and sync returns it: a
// retried fsync can report success for pages the kernel already dropped,
// and a record appended past a lost range sits behind a hole that replay
// and trail scans refuse as mid-file damage.
type File struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	cipher  *cryptoutil.OffsetCipher // nil: plaintext
	w       *bufio.Writer            // over the (encrypting) writer positioned at size
	size    int64                    // logical bytes appended (plaintext == ciphertext length)
	dirty   bool
	appends uint64
	syncs   uint64
	err     error // first write or fsync error, sticky
	closed  bool
	first   *Keys // fsynced before this file is, and before a swap (Log.SyncFirst)
}

// OpenFile opens (creating if necessary) the file at path for appending.
// A non-nil key must be 32 bytes.
func OpenFile(path string, key []byte) (*File, error) {
	c, err := newCipher(key)
	if err != nil {
		return nil, err
	}
	f := &File{path: path, cipher: c}
	if err := f.open(); err != nil {
		return nil, fmt.Errorf("aof: open: %w", err)
	}
	return f, nil
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

// Append appends p, buffered: Flush or Sync push it on.
func (f *File) Append(p []byte) error {
	return f.append(func() error { _, err := held{f}.Write(p); return err }, false)
}

// append runs write, which appends through held{f}, under the file's lock,
// then syncs when sync is set. After the first error it runs nothing and
// returns that error.
func (f *File) append(write func() error, sync bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if f.err != nil {
		return f.err
	}
	if err := write(); err != nil {
		return f.fail(err)
	}
	f.appends++
	f.dirty = true
	if sync {
		return f.syncLocked()
	}
	return nil
}

// Flush pushes buffered bytes to the OS without an fsync, for readers of
// the file. After the first error there is nothing left to push: nil.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil || !f.dirty {
		return nil
	}
	if err := f.w.Flush(); err != nil {
		return f.fail(err)
	}
	return nil
}

// Sync flushes and fsyncs. After the first error it returns that error.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncLocked()
}

func (f *File) syncLocked() error {
	if f.err != nil || !f.dirty {
		return f.err
	}
	if f.first != nil && f.fail(f.first.Sync()) != nil {
		return f.err
	}
	if err := f.w.Flush(); err != nil {
		return f.fail(err)
	}
	if err := f.f.Sync(); err != nil {
		return f.fail(err)
	}
	f.dirty = false
	f.syncs++
	return nil
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

// Close flushes, fsyncs and closes the file. Appends after it fail.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	errSync := f.syncLocked()
	errClose := f.f.Close()
	if errSync != nil {
		return errSync
	}
	return errClose
}

// swap renames tmp over the file, drops the old file with whatever was
// appended to it since, reopens for append and fsyncs the directory. A
// failed reopen sticks (LastErr): the file has nothing left to write to.
func (f *File) swap(tmp string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if f.first != nil && f.fail(f.first.Sync()) != nil {
		return f.err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return fmt.Errorf("aof: rewrite rename: %w", err)
	}
	f.f.Close()
	f.dirty = false
	if err := f.open(); err != nil {
		return f.fail(fmt.Errorf("aof: rewrite reopen: %w", err))
	}
	return SyncDir(filepath.Dir(f.path))
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
