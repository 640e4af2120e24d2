package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
)

// sampleMetadata covers what the quick generator rarely hits: nothing set,
// everything set, zero times, a time past what an int64 of nanoseconds
// holds, '{' and '\n' where a format sniffer or a line reader would trip,
// strings long enough for multi-byte lengths.
func sampleMetadata() []Metadata {
	at := time.Date(2026, 9, 25, 15, 30, 13, 547276659, time.UTC)
	return []Metadata{
		{},
		{Owner: "alice", Created: at},
		{Owner: "{alice}\n", Purposes: []string{"{", "\n", ""}, Objections: []string{"*"}, Origin: "signup\nform",
			SharedWith: []string{"processor-a", "processor-b"}, Expiry: at.Add(time.Hour), Location: "eu-west",
			AutomatedDecisions: true, Created: at, KeyEpoch: 1 << 40},
		{Owner: strings.Repeat("o", 300), Purposes: []string{strings.Repeat("p", 20_000)}, Expiry: maxNanoTime.UTC(), Created: minNanoTime.UTC()},
	}
}

func normMetadata(m Metadata) Metadata {
	norm := func(s []string) []string {
		if len(s) == 0 {
			return nil
		}
		return s
	}
	m.Purposes, m.Objections, m.SharedWith = norm(m.Purposes), norm(m.Objections), norm(m.SharedWith)
	return m
}

func TestRecordCodecRoundTrip(t *testing.T) {
	check := func(m Metadata) error {
		b := appendMetadata([]byte("prefix"), &m)[len("prefix"):]
		if b[0] == '{' {
			return errors.New("binary metadata starts like JSON")
		}
		got, err := decodeMetadata(b)
		if err != nil {
			return err
		}
		if want := normMetadata(m); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("got %+v, want %+v", got, want)
		}
		return nil
	}
	for i, m := range sampleMetadata() {
		if err := check(m); err != nil {
			t.Fatalf("metadata sample %d: %v", i, err)
		}
	}
	f := func(owner, origin, loc string, purposes, objections, shared []string, auto bool, expNs, creNs int64, epoch uint64) bool {
		return check(Metadata{Owner: owner, Origin: origin, Location: loc, Purposes: purposes,
			Objections: objections, SharedWith: shared, AutomatedDecisions: auto,
			Expiry: time.Unix(0, expNs).UTC(), Created: time.Unix(0, creNs).UTC(), KeyEpoch: epoch}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	// A time outside the codec's range is held to it, not wrapped around.
	far := Metadata{Owner: "a", Expiry: time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)}
	got, err := decodeMetadata(appendMetadata(nil, &far))
	if err != nil || !got.Expiry.Equal(maxNanoTime) {
		t.Fatalf("year-9999 deadline decodes to %v, %v; want the range's end %v", got.Expiry, err, maxNanoTime.UTC())
	}
}

// FuzzDecodeRecord: every metadata payload the decoder accepts re-encodes
// to the same bytes, so a record's metadata has one spelling, and a
// '{'-led input, the JSON an earlier release wrote, is refused as retired.
func FuzzDecodeRecord(f *testing.F) {
	for _, m := range sampleMetadata() {
		m := m
		f.Add(appendMetadata(nil, &m))
	}
	f.Add([]byte{metaV1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})          // a count past the end
	f.Add([]byte{metaV1, 0x08, 0, 0, 0, 0, 0, 0, 0})                   // an unknown flag bit
	f.Add([]byte{metaV1, 0, 0x80, 0x00, 0, 0, 0, 0, 0, 0})             // a non-minimal varint
	f.Add([]byte{metaV1, metaHasExpiry, 0, 0, 0, 0, 0xff, 0xff, 0xff}) // a truncated time
	f.Add([]byte(`{"owner":"alice","created":"2026-09-25T12:00:00Z"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMetadata(b)
		if err == nil {
			if again := appendMetadata(nil, &m); !bytes.Equal(again, b) {
				t.Fatalf("metadata %x re-encodes to %x", b, again)
			}
		}
		if json := len(b) > 0 && b[0] == '{'; json != errors.Is(err, ErrRetiredFormat) {
			t.Fatalf("metadata %q: %v", b, err)
		}
	})
}

// tickClock is a virtual clock that counts its readings and moves on by a
// nanosecond with each, the way a wall clock does between two reads.
type tickClock struct {
	*clock.Virtual
	reads atomic.Int64
}

func (c *tickClock) Now() time.Time {
	c.reads.Add(1)
	c.Advance(time.Nanosecond)
	return c.Virtual.Now()
}

// TestOneDeadlinePerRecord: the metadata's Expiry is the engine's deadline,
// exactly, live and after replay, because Put reads the clock once. (The
// parent read it four times and the two deadlines differed.)
func TestOneDeadlinePerRecord(t *testing.T) {
	path := tempAOF(t)
	clk := &tickClock{Virtual: clock.NewVirtual(time.Date(2026, 9, 25, 12, 0, 0, 0, time.UTC))}
	cfg := Config{Compliant: true, Capability: CapabilityFull, AOFPath: path, AOFSync: Ptr(aof.SyncNo), Clock: clk,
		Envelope: true, MasterKey: bytes.Repeat([]byte{7}, 32)}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	opts := PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}
	if err := s.Put(ctlCtx, "warm", []byte("v"), opts); err != nil { // creates alice's key
		t.Fatal(err)
	}
	before := clk.reads.Load()
	if err := s.Put(ctlCtx, "k", []byte("v"), opts); err != nil {
		t.Fatal(err)
	}
	// No trail here: an audit record's timestamp is the trail's own reading.
	if n := clk.reads.Load() - before; n != 1 {
		t.Fatalf("Put read the clock %d times, want 1", n)
	}
	entries := []BatchEntry{{Key: "b1", Value: []byte("v")}, {Key: "b2", Value: []byte("v")}}
	if err := s.PutBatch(ctlCtx, entries, opts); err != nil {
		t.Fatal(err)
	}
	if err := s.Expire(ctlCtx, "b2", 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) map[string]time.Time {
		t.Helper()
		out := map[string]time.Time{}
		for _, k := range []string{"k", "b1", "b2"} {
			m, err := s.Metadata(ctlCtx, k)
			if err != nil {
				t.Fatal(err)
			}
			dl, ok := s.Engine().Deadline(k)
			if !ok || !dl.Equal(m.Expiry) || m.Expiry != canonicalTime(m.Expiry) {
				t.Fatalf("%s %s: metadata expires %v, engine %v (%v)", when, k, m.Expiry, dl, ok)
			}
			out[k] = dl
		}
		return out
	}
	live := check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	addPrincipals(s2)
	if replayed := check(s2, "replayed"); !reflect.DeepEqual(replayed, live) {
		t.Fatalf("deadlines after replay %v, live %v", replayed, live)
	}
}

// TestRecordIsAllOrNothing truncates the log at every byte of its last
// entry, a Put's or a PutBatch's one GREC: replay yields the write complete
// (value, deadline, metadata, owner index) or absent, never a value without
// its metadata, and the replayed state equals the live state the prefix
// stands for.
func TestRecordIsAllOrNothing(t *testing.T) {
	for _, envelope := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("envelope=%v/batch=%v", envelope, batch), func(t *testing.T) {
				path := tempAOF(t)
				vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
				cfg := crashCfg(path, vc, 1, aof.SyncNo)
				if envelope {
					cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{3}, 32)
				}
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				ctx := Ctx{Actor: "app", Purpose: "service"}
				opts := PutOptions{Owner: "alice", Purposes: []string{"service"}, TTL: time.Hour}
				for i := 0; i < 4; i++ {
					if err := s.Put(ctx, fmt.Sprintf("k%d", i), []byte("old"), opts); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Object(ctx, "alice", "ads"); err != nil {
					t.Fatal(err)
				}
				// bob's first write journals his data key ahead of it.
				if err := s.Put(ctx, "kb", []byte("old"), PutOptions{Owner: "bob", Purposes: []string{"billing"}}); err != nil {
					t.Fatal(err)
				}
				snap := func() (string, int) {
					if err := s.Log().Sync(); err != nil {
						t.Fatal(err)
					}
					return crashDump(t, s) + ownerDump(t, s), int(s.Log().Size())
				}
				before, start := snap()
				if batch {
					err = s.PutBatch(ctx, []BatchEntry{{Key: "k1", Value: []byte("new1")}, {Key: "fresh", Value: []byte("new2")}}, opts)
				} else {
					err = s.Put(ctx, "k1", []byte("new"), PutOptions{Owner: "bob", Purposes: []string{"billing"}, TTL: 2 * time.Hour})
				}
				if err != nil {
					t.Fatal(err)
				}
				after, end := snap()
				full, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				last := full[start:end]
				if n := bytes.Count(last, []byte("\r\n$4\r\n"+opRecord+"\r\n")); n != 1 || last[0] != '*' {
					t.Fatalf("the write journaled %d entries in %q, want one %s", n, last, opRecord)
				}
				// The key file (envelope) is copied whole: it holds the
				// key of every record in any prefix of the log.
				keys, keysErr := os.ReadFile(path + ".keys")
				for cut := start; cut <= end; cut++ {
					killPath := filepath.Join(t.TempDir(), "kill.aof")
					if err := os.WriteFile(killPath, full[:cut], 0o600); err != nil {
						t.Fatal(err)
					}
					if keysErr == nil {
						if err := os.WriteFile(killPath+".keys", keys, 0o600); err != nil {
							t.Fatal(err)
						}
					}
					kcfg := cfg
					kcfg.AOFPath = killPath
					re, err := Open(kcfg)
					if err != nil {
						t.Fatalf("cut %d: %v", cut, err)
					}
					got := crashDump(t, re) + ownerDump(t, re)
					re.Close()
					want := before
					if cut == end {
						want = after
					}
					if got != want {
						t.Fatalf("cut %d of [%d,%d]: replayed state is neither with nor without the write\n--- want ---\n%s--- got ---\n%s", cut, start, end, want, got)
					}
				}
			})
		}
	}
}

// ownerDump renders what the rights operations see: the owner index.
func ownerDump(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, owner := range []string{"alice", "bob"} {
		keys, err := s.OwnerKeys(Ctx{Actor: "auditor"}, owner)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "owner %s: %v\n", owner, keys)
	}
	return b.String()
}

// The same multi-shard PutBatch journals its per-shard GREC records in one
// order every time, ascending by engine shard, so identical batches reach
// the AOF and the replication stream alike. An order taken from a Go map
// would differ from run to run.
func TestPutBatchJournalsShardsInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	s, err := Open(Config{Compliant: true, Capability: CapabilityPartial, AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ctx := Ctx{Actor: "app", Purpose: "service"}
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Key: fmt.Sprintf("batch:%02d", i), Value: []byte("v")}
	}
	const runs = 20
	for i := 0; i < runs; i++ {
		if err := s.PutBatch(ctx, entries, PutOptions{Owner: "alice", Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var shards []uint32 // the engine shard of each GREC, in journal order
	if _, err := aof.Load(path, nil, func(name string, args [][]byte) error {
		if name == opRecord {
			shards = append(shards, engineShard(t, s, string(args[1])))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	per := len(shards) / runs
	if per < 2 || len(shards) != per*runs {
		t.Fatalf("%d GREC records for %d batches", len(shards), runs)
	}
	for r := 0; r < runs; r++ {
		batch := shards[r*per : (r+1)*per]
		for i := 1; i < per; i++ {
			if batch[i] <= batch[i-1] {
				t.Fatalf("batch %d journaled its shards in the order %v", r, batch)
			}
		}
	}
}

// TestWriteAllocBudgets bounds the allocations of the compliant hot path
// with everything on (envelope encryption, journal, audit trail on disk):
// a Put, and a Get that is audited, of an owner whose cipher is cached.
func TestWriteAllocBudgets(t *testing.T) {
	dir := t.TempDir()
	cfg := EventualFull(filepath.Join(dir, "audit.log"))
	cfg.AOFPath = filepath.Join(dir, "store.aof")
	cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{1}, 32)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ACL().AddPrincipal(acl.Principal{ID: "app", Role: acl.RoleController})
	ctx := Ctx{Actor: "app", Purpose: "service"}
	opts := PutOptions{Owner: "alice", TTL: time.Hour}
	// Every Get reads alice's objections from her owner record.
	if err := s.Object(ctx, "alice", "ads"); err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 100)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("pd:alice:%06d", i)
		if err := s.Put(ctx, keys[i], val, opts); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	puts := testing.AllocsPerRun(2000, func() {
		if err := s.Put(ctx, keys[i%len(keys)], val, opts); err != nil {
			t.Fatal(err)
		}
		i++
	})
	gets := testing.AllocsPerRun(2000, func() {
		if _, err := s.Get(ctx, keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocations: Put %.1f, audited Get %.1f", puts, gets)
	// Measured 6 and 2: the Put's buffer for its key and sealed value, its
	// record, its GREC metadata, the journal record's argument list and key,
	// and the engine's copy of the value (the one-key slices it hands the
	// one write body, put, stay on the stack); the Get opening straight from
	// the engine's slice (the owner record it reads is looked up under a
	// stack key). With a Metadata per record, a default-purpose slice per
	// Put and a copying engine read they were 9 and 3; building the owner's
	// cipher per call (aes.NewCipher, cipher.NewGCM, the key copy) made them
	// 12 and 6.
	if puts > 6 {
		t.Errorf("compliant Put allocates %.1f times, budget 6", puts)
	}
	if gets > 2 {
		t.Errorf("audited Get allocates %.1f times, budget 2", gets)
	}
	if hits, misses := s.keyring.CipherStats(); misses != 1 || hits == 0 {
		t.Errorf("one owner's cipher was built %d times and served from the cache %d times, want built once", misses, hits)
	}
}

// A compliant, audited Get of a key with a TTL reads the clock twice: for
// the expiry check of the one engine probe that returns value and record
// together, and for the audit record's time. The parent read it three
// times: the metadata's liveness check, the value's lookup, the audit.
func TestGetClockReads(t *testing.T) {
	clk := &tickClock{Virtual: clock.NewVirtual(time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC))}
	cfg := Strict("")
	cfg.Clock = clk
	cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{2}, 32)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		before := clk.reads.Load()
		if v, err := s.Get(ctlCtx, "k"); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if n := clk.reads.Load() - before; n != 2 {
			t.Fatalf("compliant Get of a TTL'd key read the clock %d times, want 2", n)
		}
	}
}

// TestResidentBytesPerRecord bounds what one stored record costs in live
// heap under the repo benchmark's configuration (EventualFull, envelope
// encryption, AOF and trail on disk, 1 h TTL, 108 B of key and value, ten
// records per owner): engine entry with its record, the owner's shared
// policy, both indexes, the owner's key and its share of the keyring's
// cipher cache. The engine's RAM is its capacity, so this is the number a
// GDPR feature is charged in. A restart, which rebuilds every record by
// replaying the AOF, must land on the same layout: the replayed records
// share their owners' policies as the written ones did.
func TestResidentBytesPerRecord(t *testing.T) {
	const records, perOwner = 20_000, 10
	// Measured 439 B. With the owner and purpose sets in hash maps, not
	// ordered chunks, it measured 483 B; with the metadata in a second
	// key→*Metadata table beside the engine's, one 192 B Metadata per
	// record, 683 B; with two more maps per engine shard and an in-memory
	// ring beside the trail file (20 000 of its 65 536 records filled
	// here), 895 B.
	const budget = 439 * 110 / 100

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	dir := t.TempDir()
	cfg := EventualFull(filepath.Join(dir, "audit.log"))
	cfg.AOFPath = filepath.Join(dir, "store.aof")
	cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{1}, 32)
	open := func() *Store {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.ACL().AddPrincipal(acl.Principal{ID: "app", Role: acl.RoleController})
		return s
	}
	ctx := Ctx{Actor: "app", Purpose: "service"}
	// The metadata's Expiry is the engine's deadline, after an EXPIRE too.
	const extended = "k0000007"
	checkExpiry := func(s *Store, when string) {
		t.Helper()
		m, err := s.Metadata(ctx, extended)
		dl, ok := s.Engine().Deadline(extended)
		if err != nil || !ok || !m.Expiry.Equal(dl) {
			t.Fatalf("%s: metadata expires %v (%v), engine deadline %v (%v)", when, m.Expiry, err, dl, ok)
		}
	}

	empty := heap()
	s := open()
	before := heap()
	opened := before - empty // what an empty store holds
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < records; i++ {
		opts := PutOptions{Owner: fmt.Sprintf("u%05d", i%(records/perOwner)), TTL: time.Hour}
		if err := s.Put(ctx, fmt.Sprintf("k%07d", i), val, opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Expire(ctx, extended, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	checkExpiry(s, "live")
	if err := s.Trail().Sync(); err != nil {
		t.Fatal(err)
	}
	live := (heap() - before) / records
	t.Logf("resident heap: %d B per 108 B record", live)
	if live > budget {
		t.Errorf("a stored record holds %d B of heap, budget %d", live, budget)
	}

	// A closed store is not garbage at once: the trail's stopped AfterFunc
	// timers (drain window, barrier timeout) stay in the runtime's timer heap
	// until the scheduler next cleans it, and they hold the trail, its queue
	// and its file buffer (≈ 670 KB). Read then, the baseline includes them
	// and their release later is subtracted from the replayed records (≈ 30 B
	// each). So the replay's window opens only once the heap is back to what
	// it was before the first store opened.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = nil
	deadline := time.After(10 * time.Second)
	for before = heap(); before > empty+64<<10; before = heap() {
		select {
		case <-deadline:
			t.Fatalf("a closed store still holds %d KB of heap after 10 s", (before-empty)>>10)
		case <-time.After(time.Millisecond):
		}
	}
	s = open()
	defer s.Close()
	checkExpiry(s, "replayed")
	// Replay seals and opens nothing, so the cipher cache starts empty;
	// reading one record per owner fills it as the writes did.
	for i := 0; i < records/perOwner; i++ {
		if _, err := s.Get(ctx, fmt.Sprintf("k%07d", i)); err != nil {
			t.Fatal(err)
		}
	}
	replayed := (heap() - before - opened) / records
	t.Logf("after a restart: %d B per record", replayed)
	if replayed*100 > live*105 || replayed*100 < live*95 {
		t.Errorf("a replayed record holds %d B of heap, a written one %d: not within 5%%", replayed, live)
	}
}
