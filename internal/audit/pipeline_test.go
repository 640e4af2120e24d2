package audit

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowSink delays every record, so tests can fill the queue reliably.
type slowSink struct {
	delay  time.Duration
	writes atomic.Uint64 // records, not batches
}

func (s *slowSink) Write(recs []Record, _ []byte) error {
	time.Sleep(s.delay * time.Duration(len(recs)))
	s.writes.Add(uint64(len(recs)))
	return nil
}
func (s *slowSink) Sync() error  { return nil }
func (s *slowSink) Close() error { return nil }

// countSink records sync ordering: syncedThrough is the highest write count
// covered by a completed Sync.
type countSink struct {
	mu            sync.Mutex
	writes        uint64
	syncedThrough uint64
}

func (s *countSink) Write(recs []Record, _ []byte) error {
	s.mu.Lock()
	s.writes += uint64(len(recs))
	s.mu.Unlock()
	return nil
}
func (s *countSink) Sync() error {
	s.mu.Lock()
	s.syncedThrough = s.writes
	s.mu.Unlock()
	return nil
}
func (s *countSink) Close() error { return nil }

func (s *countSink) covered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncedThrough
}

// TestDrainOnCloseUnderLoad closes the trail while many goroutines append.
// Every append that returned nil must be in the file after Close, by its
// own sequence number, and Close must finish within the drain bound.
func TestDrainOnCloseUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	tr, err := Open(Options{Path: path, Mode: SyncBatched})
	if err != nil {
		t.Fatal(err)
	}
	const appenders = 8
	var ackedMu sync.Mutex
	var acked []uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := tr.Append(Record{Actor: "load", Op: "GET", Outcome: OutcomeOK})
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("append: %v", err)
					return
				}
				ackedMu.Lock()
				acked = append(acked, r.Seq)
				ackedMu.Unlock()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	closeErr := tr.Close()
	closeTime := time.Since(start)
	close(stop)
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("close: %v", closeErr)
	}
	if closeTime > defaultDrainTimeout {
		t.Fatalf("close took %v, want < %v", closeTime, defaultDrainTimeout)
	}

	onDisk := make(map[uint64]bool)
	if err := scanFile(path, nil, func(r Record) error { onDisk[r.Seq] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, seq := range acked {
		if !onDisk[seq] {
			t.Fatalf("append %d was acknowledged but is not in the file after close (%d acked, %d on disk)", seq, len(acked), len(onDisk))
		}
	}
	st := tr.Stats()
	if st.Processed != st.Enqueued {
		t.Fatalf("processed %d != enqueued %d after close", st.Processed, st.Enqueued)
	}
}

// TestDropPolicyCounters forces the Drop policy to shed records with a tiny
// queue and a slow sink, and checks the counters add up exactly: every
// append is either enqueued or dropped, and everything enqueued is
// eventually processed.
func TestDropPolicyCounters(t *testing.T) {
	slow := &slowSink{delay: 200 * time.Microsecond}
	tr, err := Open(Options{
		Mode: SyncNone, QueueDepth: 4, MemoryCap: -1,
		Backpressure: BackpressureDrop, ExtraSinks: []Sink{slow},
	})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perG = 4, 500
	var dropped, ok atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				_, err := tr.Append(Record{Actor: "drop", Op: "SET", Outcome: OutcomeOK})
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrDropped):
					dropped.Add(1)
				default:
					t.Errorf("append: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	total := uint64(appenders * perG)
	if st.Enqueued+st.Dropped != total {
		t.Fatalf("enqueued %d + dropped %d != %d appends", st.Enqueued, st.Dropped, total)
	}
	if st.Enqueued != ok.Load() || st.Dropped != dropped.Load() {
		t.Fatalf("counters (enq=%d drop=%d) disagree with callers (ok=%d drop=%d)",
			st.Enqueued, st.Dropped, ok.Load(), dropped.Load())
	}
	if st.Processed != st.Enqueued {
		t.Fatalf("processed %d != enqueued %d after close", st.Processed, st.Enqueued)
	}
	if dropped.Load() == 0 {
		t.Log("warning: no records dropped; queue never filled (slow machine?)")
	}
	if slow.writes.Load() != st.Processed {
		t.Fatalf("sink saw %d writes, pipeline processed %d", slow.writes.Load(), st.Processed)
	}
}

// TestStrictFsyncBeforeAck asserts the strict-compliance invariant the
// paper's real-time mode is defined by: Append must not return before a
// Sync covering the record has completed.
func TestStrictFsyncBeforeAck(t *testing.T) {
	cs := &countSink{}
	tr, err := Open(Options{
		Mode: SyncEveryOp, MemoryCap: -1, ExtraSinks: []Sink{cs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := tr.Append(Record{Actor: "strict", Op: "PUT", Outcome: OutcomeOK}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				// The ack means a sync already covered this record's write.
				if cs.covered() == 0 {
					t.Error("append acked before any sync completed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if tr.Stats().Syncs != 0 {
		t.Fatal("in-memory trail should not count file syncs")
	}
}

// TestStrictFileSyncCoversAck is the file-backed variant: after a strict
// Append returns, the record is readable from disk through a separate file
// handle — durability was established before the ack.
func TestStrictFileSyncCoversAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	tr, err := Open(Options{Path: path, Mode: SyncEveryOp})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	r, err := tr.Append(Record{Actor: "strict", Op: "PUT", Key: "k1", Outcome: OutcomeOK})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	if err := scanFile(path, nil, func(rec Record) error {
		if rec.Seq == r.Seq {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("strict append acked but record not on disk")
	}
	if tr.Syncs() == 0 {
		t.Fatal("strict append acked with zero fsyncs")
	}
}

// TestMaskedTrailHidesPII checks the masking acceptance criterion: with a
// mask key set, no raw key/owner/detail bytes appear in the on-disk trail,
// in an exported sink or in what Query and Breach return, while Query by
// the raw owner still finds the owner's records.
func TestMaskedTrailHidesPII(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	export := &captureSink{}
	tr, err := Open(Options{
		Path: path, Mode: SyncBatched,
		MaskKey:    []byte("trail-mask-key"),
		ExtraSinks: []Sink{export},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		rawKey   = "pd:alice:rec0001"
		rawOwner = "alice-subject"
		rawNote  = "alice@example.com"
	)
	if _, err := tr.Append(Record{
		Actor: "controller", Op: "PUT", Key: rawKey, Owner: rawOwner,
		Detail: rawNote, Outcome: OutcomeOK,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pii := range []string{rawKey, rawOwner, rawNote} {
		if bytes.Contains(raw, []byte(pii)) {
			t.Fatalf("raw trail file contains PII %q", pii)
		}
		if strings.Contains(export.text(), pii) {
			t.Fatalf("exported sink output contains PII %q", pii)
		}
	}
	if !strings.Contains(export.text(), maskPrefix) {
		t.Fatalf("exported output carries no pseudonyms: %q", export.text())
	}

	// A query by the raw owner finds the record, as written.
	for _, f := range []Filter{{Owner: rawOwner}, {Key: rawKey}} {
		recs, err := tr.Query(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Owner != tr.Pseudonym(rawOwner) || recs[0].Key != tr.Pseudonym(rawKey) || recs[0].Detail != tr.Pseudonym(rawNote) {
			t.Fatalf("query %+v returned %+v, want the pseudonymized record", f, recs)
		}
		if !strings.HasPrefix(recs[0].Owner, maskPrefix) {
			t.Fatalf("owner %q is no pseudonym", recs[0].Owner)
		}
	}

	// The trail's own breach report counts by pseudonym.
	rep, err := tr.Breach(time.Time{}, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AffectedOwners) != 1 || rep.AffectedOwners[tr.Pseudonym(rawOwner)] != 1 {
		t.Fatalf("breach report owners %+v, want the one pseudonym", rep.AffectedOwners)
	}
}

// TestMaskedQueryByPseudonym: on a masked trail a query by the pseudonym a
// breach report names, as for an erased subject, finds the records a query
// by the name does, and on an unmasked trail a value that looks like a
// pseudonym is matched as the name it is.
func TestMaskedQueryByPseudonym(t *testing.T) {
	for _, key := range [][]byte{[]byte("trail-mask-key"), nil} {
		tr, err := Open(Options{Mode: SyncBatched, MaskKey: key})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []Record{
			{Actor: "controller", Op: "PUT", Key: "pd:alice:1", Owner: "alice", Outcome: OutcomeOK},
			{Actor: "controller", Op: "PUT", Key: "pd:bob:1", Owner: "bob", Outcome: OutcomeOK},
			{Actor: "controller", Op: "PUT", Key: "pii:odd", Owner: "pii:odd", Outcome: OutcomeOK},
		} {
			if _, err := tr.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := tr.Breach(time.Time{}, time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rep.AffectedOwners[tr.Pseudonym("alice")]; !ok {
			t.Fatalf("mask %q: breach report owners %v, no entry for alice", key, rep.AffectedOwners)
		}
		for _, f := range []Filter{
			{Owner: "alice"}, {Owner: tr.Pseudonym("alice")},
			{Key: "pd:alice:1"}, {Key: tr.Pseudonym("pd:alice:1")},
			{Owner: tr.Pseudonym("pii:odd")},
		} {
			recs, err := tr.Query(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 {
				t.Errorf("mask %q: Query(%+v) = %d records, want 1", key, f, len(recs))
			}
		}
		tr.Close()
	}
}

// captureSink buffers everything written, standing in for an external
// collector.
type captureSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureSink) Write(recs []Record, _ []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		c.buf.Write(r.AppendJSON(nil))
		c.buf.WriteByte('\n')
	}
	return nil
}
func (c *captureSink) Sync() error  { return nil }
func (c *captureSink) Close() error { return nil }
func (c *captureSink) text() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// TestSocketSinkExport runs a real TCP collector and checks records arrive
// line-delimited, and that a dead collector degrades to counted drops
// without failing appends.
func TestSocketSinkExport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lines := make(chan string, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		var acc []byte
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				acc = append(acc, buf[:n]...)
				for {
					i := bytes.IndexByte(acc, '\n')
					if i < 0 {
						break
					}
					lines <- string(acc[:i])
					acc = acc[i+1:]
				}
			}
			if err != nil {
				return
			}
		}
	}()

	sock, err := NewSocketSink("tcp://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(Options{Mode: SyncNone, ExtraSinks: []Sink{sock}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Append(Record{Actor: "exp", Op: "GET", Key: "k", Outcome: OutcomeOK}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-lines:
		if !strings.Contains(got, `"op":"GET"`) {
			t.Fatalf("exported line missing record payload: %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no line reached the collector")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Dead collector: appends still succeed, drops are counted, and the
	// pipeline surfaces the failures as sink errors.
	dead, err := NewSocketSink("tcp://127.0.0.1:1") // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(Options{Mode: SyncNone, ExtraSinks: []Sink{dead}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Append(Record{Actor: "exp", Op: "GET", Outcome: OutcomeOK}); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if dead.Dropped() == 0 {
		t.Fatal("dead collector did not count the dropped export")
	}
	if tr2.Stats().SinkErrors == 0 {
		t.Fatal("export failure not counted in sink_errors")
	}
}

// TestInvalidSocketSpec rejects malformed export specs.
func TestInvalidSocketSpec(t *testing.T) {
	for _, spec := range []string{"", "udp://1.2.3.4:1", "tcp://", "unix://"} {
		if _, err := NewSocketSink(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

// TestCloseReturnsDrainTimeout verifies a wedged sink bounds Close.
func TestCloseReturnsDrainTimeout(t *testing.T) {
	stuck := newGateSink()
	stuck.writeGate = make(chan struct{})
	tr, err := Open(Options{
		Mode: SyncNone, MemoryCap: -1,
		ExtraSinks: []Sink{stuck}, DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Append(Record{Actor: "a", Op: "GET", Outcome: OutcomeOK}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = tr.Close()
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("close = %v, want drain timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("close took %v despite 50ms drain timeout", d)
	}
	close(stuck.writeGate)
}

// TestBlockPolicyLosesNothing saturates a tiny queue under the Block policy
// and checks every single append lands in the sink.
func TestBlockPolicyLosesNothing(t *testing.T) {
	slow := &slowSink{delay: 50 * time.Microsecond}
	tr, err := Open(Options{
		Mode: SyncNone, QueueDepth: 2, MemoryCap: -1,
		Backpressure: BackpressureBlock, ExtraSinks: []Sink{slow},
	})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perG = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if _, err := tr.Append(Record{Actor: "blk", Op: "SET", Outcome: OutcomeOK}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := slow.writes.Load(); got != appenders*perG {
		t.Fatalf("sink saw %d writes, want %d (Block policy must lose nothing)", got, appenders*perG)
	}
}
