package audit

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/testutil"
)

func tempTrail(t *testing.T, opts Options) *Trail {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "audit.log")
	}
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestAppendAssignsSeqAndTime(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1000, 0))
	tr := tempTrail(t, Options{Clock: vc})
	r1, err := tr.Append(Record{Actor: "a", Op: "GET", Outcome: OutcomeOK})
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(time.Second)
	r2, _ := tr.Append(Record{Actor: "a", Op: "SET", Outcome: OutcomeOK})
	if r1.Seq != 1 || r2.Seq != 2 {
		t.Fatalf("seqs = %d, %d", r1.Seq, r2.Seq)
	}
	if !r2.Time.After(r1.Time) {
		t.Fatal("timestamps not monotone")
	}
}

func TestSeqRecoveredAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	tr, _ := Open(Options{Path: path})
	tr.Append(Record{Op: "A", Outcome: OutcomeOK})
	tr.Append(Record{Op: "B", Outcome: OutcomeOK})
	tr.Close()
	tr2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	r, _ := tr2.Append(Record{Op: "C", Outcome: OutcomeOK})
	if r.Seq != 3 {
		t.Fatalf("resumed seq = %d, want 3", r.Seq)
	}
}

func TestQueryFilters(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	tr := tempTrail(t, Options{Clock: vc})
	tr.Append(Record{Actor: "svc1", Op: "GET", Key: "k1", Owner: "alice", Outcome: OutcomeOK})
	vc.Advance(time.Minute)
	tr.Append(Record{Actor: "svc2", Op: "SET", Key: "k2", Owner: "bob", Outcome: OutcomeOK})
	vc.Advance(time.Minute)
	tr.Append(Record{Actor: "svc1", Op: "DEL", Key: "k1", Owner: "alice", Outcome: OutcomeDenied})

	byActor, err := tr.Query(Filter{Actor: "svc1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byActor) != 2 {
		t.Fatalf("actor filter: %d records", len(byActor))
	}
	byOwner, _ := tr.Query(Filter{Owner: "bob"})
	if len(byOwner) != 1 || byOwner[0].Op != "SET" {
		t.Fatalf("owner filter: %+v", byOwner)
	}
	byOutcome, _ := tr.Query(Filter{Outcome: OutcomeDenied})
	if len(byOutcome) != 1 || byOutcome[0].Op != "DEL" {
		t.Fatalf("outcome filter: %+v", byOutcome)
	}
	window, _ := tr.Query(Filter{From: time.Unix(30, 0), To: time.Unix(90, 0)})
	if len(window) != 1 || window[0].Op != "SET" {
		t.Fatalf("window filter: %+v", window)
	}
}

func TestQueryServesBeyondMemoryCap(t *testing.T) {
	tr := tempTrail(t, Options{MemoryCap: 4})
	for i := 0; i < 20; i++ {
		tr.Append(Record{Op: fmt.Sprintf("OP%d", i), Outcome: OutcomeOK})
	}
	all, err := tr.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("file-backed query returned %d, want 20 (memory cap must not truncate)", len(all))
	}
	if all[0].Op != "OP0" || all[19].Op != "OP19" {
		t.Fatal("records out of order")
	}
}

func TestInMemoryTrail(t *testing.T) {
	tr, err := Open(Options{}) // no path
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Append(Record{Op: "GET", Outcome: OutcomeOK})
	got, err := tr.Query(Filter{})
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
	if tr.Size() != 0 {
		t.Fatal("in-memory trail reported file size")
	}
}

func TestEncryptedTrail(t *testing.T) {
	key := bytes.Repeat([]byte{5}, 32)
	path := filepath.Join(t.TempDir(), "audit.enc")
	tr, err := Open(Options{Path: path, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	tr.Append(Record{Actor: "svc", Op: "GET", Key: "super-secret-key-name", Outcome: OutcomeOK})
	tr.Sync()
	raw, _ := os.ReadFile(path)
	if bytes.Contains(raw, []byte("super-secret-key-name")) {
		t.Fatal("plaintext key name visible in encrypted trail")
	}
	got, err := tr.Query(Filter{})
	if err != nil || len(got) != 1 {
		t.Fatalf("query over encrypted trail: %v, %v", got, err)
	}
	tr.Close()

	tr2, err := Open(Options{Path: path, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Seq() != 1 {
		t.Fatalf("seq after encrypted reopen = %d", tr2.Seq())
	}
}

// scriptClock returns its times in turn, then the last one for good.
type scriptClock struct {
	mu    sync.Mutex
	times []time.Time
}

func (c *scriptClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.times[0]
	if len(c.times) > 1 {
		c.times = c.times[1:]
	}
	return t
}

func (c *scriptClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// TestTrailReadsBackEveryField: every record a trail acknowledged reads
// back through Query, Breach and RecoverLastSeq as it was written, number,
// time to the nanosecond (a zero one and a wall clock that steps back
// included), outcome and six strings, on plain and encrypted files, masked
// and not. Masked, it was written with Key, Owner and Detail pseudonymized,
// and reads back so.
func TestTrailReadsBackEveryField(t *testing.T) {
	at := time.Date(2026, 10, 16, 8, 0, 0, 999, time.UTC)
	in := []Record{
		{Actor: "svc", Op: "GET", Key: "pd:alice:1", Owner: "alice", Purpose: "billing", Outcome: OutcomeOK},
		{Actor: "svc", Op: "GET", Key: "pd:alice:1", Owner: "alice", Purpose: "billing", Outcome: OutcomeMissing},
		{Actor: "mallory", Op: "DEL", Key: "pd:bob:7", Owner: "bob", Outcome: OutcomeDenied, Detail: "no grant"},
		{Actor: "svc", Op: "PUT", Key: "pd:bob:8", Owner: "bob", Purpose: "billing", Outcome: "partial", Detail: "bytes=12"},
		{Op: "COMPACT", Outcome: OutcomeError, Detail: "disk full"},
		{Actor: "svc", Op: "GET", Key: "k", Owner: "carol", Purpose: "svc", Outcome: OutcomeOK, Detail: "billing"},
	}
	times := []time.Time{at, at.Add(time.Microsecond), {}, at.Add(-time.Hour), at.Add(-time.Hour + 3), at.Add(2 * time.Second)}
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{4}, 32)} {
		for _, mask := range [][]byte{nil, []byte("trail-mask-key")} {
			path := filepath.Join(t.TempDir(), "audit.log")
			tr, err := Open(Options{Path: path, Key: key, MaskKey: mask, Clock: &scriptClock{times: slices.Clone(times)}})
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			for _, r := range in {
				r, err := tr.Append(r)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, tr.mask(r))
			}
			got, err := tr.Query(Filter{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("key %v mask %v: query returned\n%+v\nwant\n%+v", key != nil, mask != nil, got, want)
			}
			rep, err := tr.Breach(time.Time{}, at.Add(time.Hour))
			if err != nil || rep.Records != len(in) || rep.Denied != 1 || rep.AffectedOwners[tr.Pseudonym("bob")] != 2 || rep.Ops["GET"] != 3 {
				t.Fatalf("key %v mask %v: breach report %+v, %v", key != nil, mask != nil, rep, err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if last, err := RecoverLastSeq(path, key); err != nil || last != uint64(len(in)) {
				t.Fatalf("key %v mask %v: last seq %d, %v; want %d", key != nil, mask != nil, last, err, len(in))
			}
		}
	}
}

func TestSyncEveryOpCounts(t *testing.T) {
	tr := tempTrail(t, Options{Mode: SyncEveryOp})
	tr.Append(Record{Op: "A", Outcome: OutcomeOK})
	tr.Append(Record{Op: "B", Outcome: OutcomeOK})
	if tr.Syncs() != 2 {
		t.Fatalf("syncs = %d, want 2", tr.Syncs())
	}
}

// TestBatchedFileSyncsItself: a batched trail's file fsyncs once a second
// with no Sync call (the aof.File runs the schedule; the drainer has no
// clock), and a SyncNone trail's never does.
func TestBatchedFileSyncsItself(t *testing.T) {
	if testing.Short() {
		t.Skip("waits >1s for the file's once-a-second sync")
	}
	batched := tempTrail(t, Options{Mode: SyncBatched})
	none := tempTrail(t, Options{Mode: SyncNone})
	for _, tr := range []*Trail{batched, none} {
		if _, err := tr.Append(Record{Op: "A", Outcome: OutcomeOK}); err != nil {
			t.Fatal(err)
		}
	}
	testutil.Eventually(t, 3*time.Second, 20*time.Millisecond, func() bool { return batched.Syncs() > 0 },
		"the batched trail's file never synced")
	if n := none.Syncs(); n != 0 {
		t.Fatalf("a SyncNone trail fsynced %d times", n)
	}
}

// TestScanOrder: the file is in sequence order (DESIGN.md §17), so a scan
// returns appends in the order they were made.
func TestScanOrder(t *testing.T) {
	tr := tempTrail(t, Options{})
	for i := 0; i < 10; i++ {
		tr.Append(Record{Op: fmt.Sprintf("OP%d", i), Outcome: OutcomeOK})
	}
	var seqs []uint64
	if err := tr.Scan(func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("scan order broken at %d: %v", i, seqs)
		}
	}
}

func TestBreachReport(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	tr := tempTrail(t, Options{Clock: vc})
	tr.Append(Record{Actor: "attacker", Op: "GET", Owner: "alice", Outcome: OutcomeOK})
	tr.Append(Record{Actor: "attacker", Op: "GET", Owner: "bob", Outcome: OutcomeOK})
	tr.Append(Record{Actor: "attacker", Op: "DEL", Owner: "bob", Outcome: OutcomeDenied})
	vc.Advance(time.Hour)
	tr.Append(Record{Actor: "normal", Op: "GET", Owner: "carol", Outcome: OutcomeOK})

	rep, err := tr.Breach(time.Unix(0, 0), time.Unix(1800, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 {
		t.Fatalf("records = %d, want 3", rep.Records)
	}
	if rep.AffectedOwners["alice"] != 1 || rep.AffectedOwners["bob"] != 2 {
		t.Fatalf("owners = %v", rep.AffectedOwners)
	}
	if rep.Denied != 1 {
		t.Fatalf("denied = %d", rep.Denied)
	}
	if rep.Actors["attacker"] != 3 {
		t.Fatalf("actors = %v", rep.Actors)
	}
	if _, ok := rep.AffectedOwners["carol"]; ok {
		t.Fatal("out-of-window record included")
	}
}

func TestConcurrentAppendsUniqueSeqs(t *testing.T) {
	tr := tempTrail(t, Options{})
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r, err := tr.Append(Record{Op: "X", Outcome: OutcomeOK})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if seen[r.Seq] {
					t.Errorf("duplicate seq %d", r.Seq)
				}
				seen[r.Seq] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if tr.Seq() != 800 {
		t.Fatalf("final seq = %d", tr.Seq())
	}
}

func TestAppendAfterClose(t *testing.T) {
	tr, _ := Open(Options{})
	tr.Close()
	if _, err := tr.Append(Record{Op: "X"}); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	tr, _ := Open(Options{Path: path})
	tr.Append(Record{Op: "A", Outcome: OutcomeOK})
	tr.Sync() // A's claim is written before B's
	tr.Append(Record{Op: "B", Outcome: OutcomeOK})
	tr.Close()
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-5], 0o600) // torn final claim
	tr2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer tr2.Close()
	got, err := tr2.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Op != "A" {
		t.Fatalf("torn-tail query = %+v", got)
	}
}

func TestModeStrings(t *testing.T) {
	if SyncEveryOp.String() != "every-op" || SyncBatched.String() != "batched-1s" || SyncNone.String() != "none" {
		t.Fatal("mode names wrong")
	}
}
