package aof_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
)

// drainedPipe returns the write end of a pipe that a goroutine drains:
// writes to it succeed and an fsync of it fails (EINVAL).
func drainedPipe(t *testing.T) *os.File {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 4096)
		for {
			if _, err := r.Read(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		w.Close() // its File may have closed it already
		<-drained
		r.Close()
	})
	return w
}

// TestFsyncErrorSticks swaps a File's descriptor for a drained pipe, so
// its next fsync fails. From then on every append and sync through the
// File returns that first error, since a retried fsync can report success
// for pages the kernel already dropped. It runs against both users of
// File: the command log, failing on a flusher tick or a Sync, and a strict
// audit trail, whose record after the lost one must not be acknowledged:
// it would sit past a hole that a scan of the trail refuses.
func TestFsyncErrorSticks(t *testing.T) {
	for _, policy := range []aof.SyncPolicy{aof.SyncEverySec, aof.SyncNo} {
		t.Run(policy.String(), func(t *testing.T) {
			l, err := aof.Open(filepath.Join(t.TempDir(), "appendonly.aof"), aof.Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			file := aof.SwapFile(l.File, drainedPipe(t))
			defer func() {
				l.Close() // closes the pipe's write end
				file.Close()
			}()

			if err := l.Append("SET", []byte("k"), []byte("v")); err != nil {
				t.Fatalf("append before the failure: %v", err)
			}
			if policy == aof.SyncNo {
				if err := l.Sync(); err == nil {
					t.Fatal("Sync of a pipe reported success")
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for l.LastErr() == nil && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			first := l.LastErr()
			if first == nil {
				t.Fatal("the failed fsync left no LastErr")
			}
			if err := l.Append("SET", []byte("k2"), []byte("v")); err == nil || err.Error() != first.Error() {
				t.Fatalf("Append after the failure = %v, want %v", err, first)
			}
			if err := l.Sync(); err == nil || err.Error() != first.Error() {
				t.Fatalf("Sync after the failure = %v, want %v", err, first)
			}
		})
	}

	t.Run("strict-trail", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "audit.log")
		sink, err := audit.NewFileSink(path, nil, aof.SyncNo)
		if err != nil {
			t.Fatal(err)
		}
		trail, err := audit.Open(audit.Options{Mode: audit.SyncEveryOp, MemoryCap: -1, ExtraSinks: []audit.Sink{sink}})
		if err != nil {
			t.Fatal(err)
		}
		appendOp := func(op string) error {
			_, err := trail.Append(audit.Record{Actor: "svc", Op: op, Outcome: audit.OutcomeOK})
			return err
		}
		if err := appendOp("one"); err != nil {
			t.Fatalf("record 1: %v", err)
		}
		file := aof.SwapFile(sink.File, drainedPipe(t))
		if err := appendOp("two"); err == nil {
			t.Fatal("record 2 acknowledged over a failed fsync")
		}
		first := sink.LastErr()
		if first == nil {
			t.Fatal("the failed fsync left no LastErr")
		}
		aof.SwapFile(sink.File, file)
		if err := appendOp("three"); !errors.Is(err, first) {
			t.Fatalf("record 3 after the failure = %v, want %v", err, first)
		}
		if err := trail.LastErr(); !errors.Is(err, first) {
			t.Fatalf("Trail.LastErr = %v, want %v", err, first)
		}
		if err := trail.Close(); !errors.Is(err, first) {
			t.Fatalf("Close = %v, want %v", err, first)
		}

		reopened, err := audit.Open(audit.Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		recs, err := reopened.Query(audit.Filter{})
		if err != nil {
			t.Fatalf("query after the failure: %v", err)
		}
		if len(recs) != 1 || recs[0].Op != "one" {
			t.Fatalf("trail holds %+v, want only record 1", recs)
		}
	})
}
