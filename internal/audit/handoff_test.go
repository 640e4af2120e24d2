package audit

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/testutil"
)

// gateSink counts Write and Sync calls, remembers the sequence numbers in
// arrival order, and can hold either call: while a gate channel is set, a
// call announces itself on entered and then waits for one token (or for the
// gate to be closed).
type gateSink struct {
	mu        sync.Mutex
	writes    int
	syncs     int
	seqs      []uint64
	writeGate chan struct{}
	syncGate  chan struct{}
	entered   chan struct{}
}

func newGateSink() *gateSink {
	// entered is buffered past anything a test produces, so an unheld
	// sink never blocks on it.
	return &gateSink{entered: make(chan struct{}, 1<<16)}
}

func (s *gateSink) Write(recs []Record, _ []byte) error {
	if s.writeGate != nil {
		s.entered <- struct{}{}
		<-s.writeGate
	}
	s.mu.Lock()
	s.writes++
	for _, r := range recs {
		s.seqs = append(s.seqs, r.Seq)
	}
	s.mu.Unlock()
	return nil
}

func (s *gateSink) Sync() error {
	if s.syncGate != nil {
		s.entered <- struct{}{}
		<-s.syncGate
	}
	s.mu.Lock()
	s.syncs++
	s.mu.Unlock()
	return nil
}

func (s *gateSink) Close() error { return nil }

func (s *gateSink) counts() (writes, syncs int, seqs []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.syncs, append([]uint64(nil), s.seqs...)
}

func openGated(t *testing.T, opts Options) (*Trail, *gateSink) {
	t.Helper()
	gs := newGateSink()
	gs.writeGate = make(chan struct{})
	opts.MemoryCap = -1
	opts.ExtraSinks = []Sink{gs}
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, gs
}

func mustAppend(t *testing.T, tr *Trail) Record {
	t.Helper()
	r, err := tr.Append(Record{Actor: "a", Op: "GET", Outcome: OutcomeOK})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return r
}

// appendFrom starts n goroutines that append perG records each.
func appendFrom(t *testing.T, tr *Trail, n, perG int) *sync.WaitGroup {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := tr.Append(Record{Actor: "a", Op: "SET", Outcome: OutcomeOK}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	return &wg
}

func assertIncreasing(t *testing.T, seqs []uint64) {
	t.Helper()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence order broken at %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}

// TestPipelineOneWindowOneDrain: appends made inside one window reach the
// sink in one pass, 64 records per Write, where the parent's workers made
// about one Write per record; and once the trail is idle again nothing is
// armed.
func TestPipelineOneWindowOneDrain(t *testing.T) {
	tr, gs := openGated(t, Options{Mode: SyncNone})
	// Park the drainer inside a Write, so the window in which the 1 000
	// arrive cannot end early however this goroutine is scheduled.
	mustAppend(t, tr)
	<-gs.entered
	const n = 1000 // below kickAt (1 024): only the window wakes the drainer
	for i := 0; i < n; i++ {
		mustAppend(t, tr)
	}
	close(gs.writeGate)
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	writes, _, seqs := gs.counts()
	if want := 1 + (n+workerBatch-1)/workerBatch; writes > want {
		t.Fatalf("%d records reached the sink in %d writes, want <= %d", n+1, writes, want)
	}
	if len(seqs) != n+1 {
		t.Fatalf("sink saw %d records, want %d", len(seqs), n+1)
	}
	assertIncreasing(t, seqs)

	// Sync's own kick may still be on its way to an empty pass; after
	// that the trail is idle: no token, and no timer to produce one.
	testutil.Eventually(t, 5*time.Second, 0, func() bool { return len(tr.wake) == 0 },
		"the drainer never took the last token")
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.window.Stop() {
		t.Error("idle trail still had its window timer armed")
	}
}

// TestBackpressureBlockResumesAfterDrain parks producers on a full queue
// behind a held Write; when the drainer comes back and releases slots,
// every one of them resumes, nothing is lost and nothing is reordered.
func TestBackpressureBlockResumesAfterDrain(t *testing.T) {
	tr, gs := openGated(t, Options{Mode: SyncNone, QueueDepth: 8})
	mustAppend(t, tr)
	<-gs.entered // the drainer holds record 1 inside Write; 7 slots are free
	const producers, perG = 6, 3
	wg := appendFrom(t, tr, producers, perG)
	testutil.Eventually(t, 5*time.Second, 0, func() bool { return tr.Stats().Enqueued == 8 },
		"queue never filled behind the held write")
	if st := tr.Stats(); st.QueueDepth != 8 || st.QueueCap != 8 {
		t.Fatalf("depth %d / cap %d with the queue full, want 8 / 8", st.QueueDepth, st.QueueCap)
	}
	close(gs.writeGate)
	wg.Wait()
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	const total = 1 + producers*perG
	st := tr.Stats()
	if st.Enqueued != total || st.Processed != total || st.Dropped != 0 {
		t.Fatalf("enqueued %d processed %d dropped %d, want %d/%d/0", st.Enqueued, st.Processed, st.Dropped, total, total)
	}
	_, _, seqs := gs.counts()
	if len(seqs) != total {
		t.Fatalf("sink saw %d records, want %d", len(seqs), total)
	}
	assertIncreasing(t, seqs)
}

// TestDropShedsExactlyTheGaps: under Drop, a full queue sheds with the
// sequence number already assigned, so the numbers missing from the sinks
// are exactly the shed records'; and a held sink drives the depth gauge
// to the capacity (the ops surface's queue pressure, depth/capacity, to
// 1.0) at the moment appends start to be shed, not before.
func TestDropShedsExactlyTheGaps(t *testing.T) {
	tr, gs := openGated(t, Options{Mode: SyncNone, QueueDepth: 8, Backpressure: BackpressureDrop})
	mustAppend(t, tr)        // seq 1
	<-gs.entered             // held inside Write, its slot still occupied
	for i := 0; i < 7; i++ { // seq 2-8 take the other seven
		if st := tr.Stats(); st.QueueDepth != 1+i || st.Dropped != 0 {
			t.Fatalf("before append %d: depth %d dropped %d", 2+i, st.QueueDepth, st.Dropped)
		}
		mustAppend(t, tr)
	}
	if st := tr.Stats(); st.QueueDepth != 8 || st.QueueCap != 8 {
		t.Fatalf("depth %d / cap %d behind a held sink, want 8 / 8", st.QueueDepth, st.QueueCap)
	}
	shed := make(map[uint64]bool)
	for i := 0; i < 6; i++ { // seq 9-14 find no room
		r, err := tr.Append(Record{Actor: "a", Op: "GET", Outcome: OutcomeOK})
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("append on a full queue = %v, want ErrDropped", err)
		}
		shed[r.Seq] = true
	}
	close(gs.writeGate)
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	last := mustAppend(t, tr) // seq 15, across the ring's end
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Dropped != 6 || st.Enqueued != 9 || st.Processed != 9 || st.QueueDepth != 0 {
		t.Fatalf("dropped %d enqueued %d processed %d depth %d, want 6/9/9/0", st.Dropped, st.Enqueued, st.Processed, st.QueueDepth)
	}
	_, _, seqs := gs.counts()
	assertIncreasing(t, seqs)
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		seen[s] = true
	}
	for s := uint64(1); s <= last.Seq; s++ {
		if seen[s] == shed[s] {
			t.Fatalf("seq %d: in sink %v, shed %v; the gaps must be exactly the shed records", s, seen[s], shed[s])
		}
	}
}

// TestStrictGroupCommitSpansTheFsync extends TestStrictFsyncBeforeAck:
// strict appends that arrive while one fsync is in flight all commit under
// the next one, and none is acknowledged before that fsync returned.
func TestStrictGroupCommitSpansTheFsync(t *testing.T) {
	gs := newGateSink()
	gs.syncGate = make(chan struct{})
	tr, err := Open(Options{Mode: SyncEveryOp, MemoryCap: -1, ExtraSinks: []Sink{gs}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	first := make(chan struct{})
	go func() {
		defer close(first)
		if _, err := tr.Append(Record{Actor: "s", Op: "PUT", Outcome: OutcomeOK}); err != nil {
			t.Errorf("append: %v", err)
		}
	}()
	<-gs.entered // fsync 1 in flight, covering record 1

	const appenders = 8
	var acked atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Append(Record{Actor: "s", Op: "PUT", Outcome: OutcomeOK}); err != nil {
				t.Errorf("append: %v", err)
			}
			acked.Add(1)
		}()
	}
	testutil.Eventually(t, 5*time.Second, 0, func() bool { return tr.Stats().Enqueued == 1+appenders },
		"strict appends never queued behind the held fsync")
	gs.syncGate <- struct{}{}
	<-first
	<-gs.entered // fsync 2 in flight, covering all eight
	if n := acked.Load(); n != 0 {
		t.Fatalf("%d strict appends acknowledged before their fsync returned", n)
	}
	gs.syncGate <- struct{}{}
	wg.Wait()
	if _, syncs, seqs := gs.counts(); syncs != 2 || len(seqs) != 1+appenders {
		t.Fatalf("%d records under %d fsyncs, want %d under 2", len(seqs), syncs, 1+appenders)
	}
	close(gs.syncGate)
}

// TestFileOrderIsSeqOrder: the number is assigned under the queue lock and
// one drainer writes front to back, so the file is in sequence order
// whatever the appenders do and however often the ring wraps (DESIGN.md
// §17).
func TestFileOrderIsSeqOrder(t *testing.T) {
	for _, depth := range []int{0, 100} { // the default, and one that wraps mid-claim
		path := filepath.Join(t.TempDir(), "audit.log")
		tr, err := Open(Options{Path: path, QueueDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		const appenders, perG = 8, 2000
		appendFrom(t, tr, appenders, perG).Wait()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		if err := scanFile(path, nil, func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seqs) != appenders*perG {
			t.Fatalf("depth %d: file holds %d records, want %d", depth, len(seqs), appenders*perG)
		}
		assertIncreasing(t, seqs)
	}
}

// TestAppendAllocs: a non-strict Append copies the record into a
// preallocated slot and allocates nothing.
func TestAppendAllocs(t *testing.T) {
	gs := newGateSink()
	tr, err := Open(Options{Mode: SyncNone, MemoryCap: -1, ExtraSinks: []Sink{gs}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rec := Record{Actor: "svc", Op: "GET", Key: "pd:alice:1", Owner: "alice", Purpose: "billing", Outcome: OutcomeOK}
	for i := 0; i < 2*workerBatch; i++ { // grow the drainer's buffers first
		tr.Append(rec)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	gs.seqs = make([]uint64, 0, 1<<12) // the test sink's own growth is not Append's
	gs.mu.Unlock()
	if n := testing.AllocsPerRun(1000, func() { tr.Append(rec) }); n != 0 {
		t.Fatalf("non-strict Append allocates %v times, want 0", n)
	}
}

// TestBarrierTimerHoldsNoClosedTrail: the timeout timer of a barrier that
// returned reaches neither the ring nor the sinks. The runtime keeps a
// stopped timer in its heap until it would have fired, unless the timer
// sits at the heap's head or tail or stopped timers crowd the heap, so a
// timer that reached the trail would keep a closed trail, its 4096-slot ring
// included, alive for up to DrainTimeout (an hour here). The test runs on one
// P, among armed timers that keep the stopped one inside the heap, and makes
// no timer of its own while it waits for the ring to be freed.
func TestBarrierTimerHoldsNoClosedTrail(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 32; i++ {
		defer time.AfterFunc(time.Hour, func() {}).Stop()
	}
	gs := newGateSink()
	gs.writeGate = make(chan struct{})
	tr, err := Open(Options{MemoryCap: -1, ExtraSinks: []Sink{gs}, DrainTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Append(Record{Op: "GET", Outcome: OutcomeOK}); err != nil {
		t.Fatal(err)
	}
	<-gs.entered // the drainer holds the record in Write, unprocessed
	synced := make(chan error)
	go func() { synced <- tr.Sync() }()
	for len(tr.wake) == 0 { // the barrier kicked the held drainer ...
		runtime.Gosched()
	}
	tr.mu.Lock() // ... and, holding mu since, armed its timer and waits
	tr.mu.Unlock()
	for i := 0; i < 8; i++ { // due after the barrier's timer: the heap's tail
		defer time.AfterFunc(2*time.Hour, func() {}).Stop()
	}
	close(gs.writeGate)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(&tr.ring[0], func(*pending) { close(freed) })
	tr = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		runtime.Gosched()
		select {
		case <-freed:
			return
		default:
		}
	}
	t.Fatal("a closed trail's ring is still reachable after its barrier returned")
}
