package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gdprstore/internal/clock"
)

func newTestDB() (*DB, *clock.Virtual) {
	vc := clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
	return New(Options{Clock: vc, Seed: 42}), vc
}

func TestSetGet(t *testing.T) {
	db, _ := newTestDB()
	db.Set("k", []byte("v"))
	got, ok := db.Get("k")
	if !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestGetMissing(t *testing.T) {
	db, _ := newTestDB()
	if _, ok := db.Get("nope"); ok {
		t.Fatal("missing key reported present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db, _ := newTestDB()
	db.Set("k", []byte("abc"))
	v, _ := db.Get("k")
	v[0] = 'X'
	again, _ := db.Get("k")
	if !bytes.Equal(again, []byte("abc")) {
		t.Fatal("Get leaked internal buffer")
	}
}

// A slice lent by Probe keeps its bytes whatever later happens to the key:
// writers install fresh slices, they never write into a stored one. Rights
// reads copy from lent slices after the shard lock is released.
func TestProbeLendsImmutableSlice(t *testing.T) {
	db, vc := newTestDB()
	mutations := map[string]func(k string){
		"Set":        func(k string) { db.Set(k, []byte("new")) },
		"SetEX":      func(k string) { db.SetEX(k, []byte("new"), time.Hour) },
		"SetKeepTTL": func(k string) { db.SetKeepTTL(k, []byte("new")) },
		"SetBatch":   func(k string) { db.SetBatch([]string{k}, [][]byte{[]byte("new")}) },
		"SetRecorded": func(k string) {
			_ = db.SetRecorded([]string{k}, [][]byte{[]byte("new")}, nil, vc.Now().Add(time.Hour), "REC")
		},
		"Restore":  func(k string) { db.Restore(k, []byte("new"), nil, time.Time{}) },
		"Apply":    func(k string) { _ = db.Apply("SET", [][]byte{[]byte(k), []byte("new")}) },
		"Del":      func(k string) { db.Del(k) },
		"expiry":   func(k string) { vc.Advance(2 * time.Minute) },
		"FlushAll": func(k string) { db.FlushAll() },
	}
	probe := func(k string) (Entry, bool) {
		var e [1]Entry
		var found [1]bool
		db.Probe([]string{k}, vc.Now(), true, e[:], found[:])
		db.Flush()
		return e[0], found[0]
	}
	for name, mutate := range mutations {
		db.SetEX(name, []byte("old"), time.Minute)
		lent, ok := probe(name)
		if !ok {
			t.Fatalf("%s: key missing", name)
		}
		mutate(name)
		if _, still := probe(name); name == "expiry" && still {
			t.Fatal("expired key still served")
		}
		if string(lent.Value) != "old" {
			t.Errorf("%s rewrote a lent slice: %q", name, lent.Value)
		}
	}
}

func TestSetClearsTTL(t *testing.T) {
	db, vc := newTestDB()
	db.SetEX("k", []byte("v"), time.Minute)
	db.Set("k", []byte("v2")) // plain SET must clear TTL, as in Redis
	vc.Advance(2 * time.Minute)
	if _, ok := db.Get("k"); !ok {
		t.Fatal("SET did not clear TTL")
	}
}

func TestSetKeepTTL(t *testing.T) {
	db, vc := newTestDB()
	db.SetEX("k", []byte("v"), time.Minute)
	db.SetKeepTTL("k", []byte("v2"))
	if _, st := db.TTL("k"); st != TTLSet {
		t.Fatal("KEEPTTL dropped the TTL")
	}
	vc.Advance(2 * time.Minute)
	if _, ok := db.Get("k"); ok {
		t.Fatal("key survived its kept TTL")
	}
}

// TestMultiJournal: all-nil legs compose to no journal, so the engine keeps
// its no-journal fast path; otherwise every leg gets every record in leg
// order, and a failing leg neither starves the next nor hides its error.
func TestMultiJournal(t *testing.T) {
	if NewMultiJournal(nil, nil) != nil {
		t.Fatal("all-nil legs composed to a journal")
	}
	var got []string
	leg := func(name string, err error) Journal {
		return JournalFunc(func(op string, _ ...[]byte) error {
			got = append(got, name+":"+op)
			return err
		})
	}
	failed := errors.New("aof failed")
	j := NewMultiJournal(leg("aof", failed), nil, leg("hub", nil))
	if err := j.AppendOp("SET"); err != failed {
		t.Fatalf("AppendOp = %v, want the failing leg's error", err)
	}
	j.AppendOp("DEL")
	if fmt.Sprint(got) != "[aof:SET hub:SET aof:DEL hub:DEL]" {
		t.Fatalf("legs saw %v", got)
	}
}

// TestSetKeepTTLOnDeadKey: a KEEPTTL write that finds the key past its
// deadline but not yet reclaimed expires it first, as Redis does, so the
// acknowledged value has no TTL instead of a dead one that deletes it on the
// next access; the journal says so (DEL, then the SET) and replays to the
// same state. Replay itself never expires by its own clock.
func TestSetKeepTTLOnDeadKey(t *testing.T) {
	db, vc := newTestDB()
	var log []journalRec
	db.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
		log = append(log, journalRec{name: name, args: args})
		return nil
	}))
	db.SetEX("k", []byte("v"), time.Minute)
	vc.Advance(2 * time.Minute) // dead, and no cycle or access has reclaimed it
	db.SetKeepTTL("k", []byte("v2"))

	fresh := New(Options{Clock: vc})
	var ops []string
	for _, r := range log {
		ops = append(ops, r.name)
		if err := fresh.Apply(r.name, r.args); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(ops); got != "[SETEX DEL SET]" {
		t.Fatalf("journal = %s, want [SETEX DEL SET]", got)
	}
	vc.Advance(time.Hour)
	for name, e := range map[string]*DB{"live": db, "replayed": fresh} {
		if v, ok := e.Get("k"); !ok || string(v) != "v2" {
			t.Errorf("%s: Get = %q, %v: the acknowledged write was lost to the old deadline", name, v, ok)
		}
		if _, st := e.TTL("k"); st != TTLNone {
			t.Errorf("%s: TTL status %v, want none", name, st)
		}
		if n := e.ExpireLen(); n != 0 {
			t.Errorf("%s: %d keys carry a TTL, want 0", name, n)
		}
	}

	// A replica applying the primary's KEEPTTL after the key died on its own
	// clock keeps the deadline: the primary found the key alive, and bringing
	// it back without its TTL would serve it past its retention bound.
	late := New(Options{Clock: vc})
	late.SetEX("r", []byte("v"), time.Minute)
	vc.Advance(2 * time.Minute)
	if err := late.Apply("SET", [][]byte{[]byte("r"), []byte("v2"), []byte("KEEPTTL")}); err != nil {
		t.Fatal(err)
	}
	if late.ExpireLen() != 1 || late.Exists("r") {
		t.Fatal("replayed KEEPTTL resurrected a dead key")
	}
}

func TestDel(t *testing.T) {
	db, _ := newTestDB()
	db.Set("a", []byte("1"))
	db.Set("b", []byte("2"))
	if n := db.Del("a", "b", "c"); n != 2 {
		t.Fatalf("Del = %d, want 2", n)
	}
	if db.Exists("a") || db.Exists("b") {
		t.Fatal("deleted keys still exist")
	}
}

func TestLazyExpiry(t *testing.T) {
	db, vc := newTestDB()
	db.SetEX("k", []byte("v"), time.Minute)
	if !db.Exists("k") {
		t.Fatal("key should exist before expiry")
	}
	vc.Advance(61 * time.Second)
	if db.RawLen() != 1 {
		t.Fatal("key should still be physically present (lazy)")
	}
	if _, ok := db.Get("k"); ok {
		t.Fatal("expired key served")
	}
	if db.RawLen() != 0 {
		t.Fatal("lazy expiry did not reclaim on access")
	}
	if db.ExpiredCount() != 1 {
		t.Fatalf("expired count = %d", db.ExpiredCount())
	}
}

func TestExpireOnMissingKey(t *testing.T) {
	db, _ := newTestDB()
	if db.Expire("nope", time.Minute) {
		t.Fatal("Expire on missing key returned true")
	}
}

func TestExpirePastDeadlineDeletesImmediately(t *testing.T) {
	db, vc := newTestDB()
	db.Set("k", []byte("v"))
	if !db.ExpireAt("k", vc.Now().Add(-time.Second)) {
		t.Fatal("ExpireAt returned false for existing key")
	}
	if db.RawLen() != 0 {
		t.Fatal("past deadline must delete immediately")
	}
}

func TestPersist(t *testing.T) {
	db, vc := newTestDB()
	db.SetEX("k", []byte("v"), time.Minute)
	if !db.Persist("k") {
		t.Fatal("Persist returned false")
	}
	vc.Advance(time.Hour)
	if !db.Exists("k") {
		t.Fatal("persisted key expired")
	}
	if db.Persist("k") {
		t.Fatal("second Persist should return false (no TTL)")
	}
}

func TestTTLStatuses(t *testing.T) {
	db, _ := newTestDB()
	if _, st := db.TTL("missing"); st != TTLMissing {
		t.Fatalf("status = %v, want missing", st)
	}
	db.Set("plain", []byte("v"))
	if _, st := db.TTL("plain"); st != TTLNone {
		t.Fatalf("status = %v, want none", st)
	}
	db.SetEX("ttl", []byte("v"), time.Minute)
	d, st := db.TTL("ttl")
	if st != TTLSet || d != time.Minute {
		t.Fatalf("TTL = %v, %v", d, st)
	}
}

func TestFlushAll(t *testing.T) {
	db, _ := newTestDB()
	db.Set("a", []byte("1"))
	db.SetEX("b", []byte("2"), time.Minute)
	db.FlushAll()
	if db.RawLen() != 0 || db.ExpireLen() != 0 {
		t.Fatal("FlushAll left residue")
	}
}

func TestLenExcludesExpired(t *testing.T) {
	db, vc := newTestDB()
	db.Set("live", []byte("1"))
	db.SetEX("dead", []byte("2"), time.Second)
	vc.Advance(2 * time.Second)
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	if db.RawLen() != 2 {
		t.Fatalf("RawLen = %d, want 2", db.RawLen())
	}
}

func TestRandomKey(t *testing.T) {
	db, _ := newTestDB()
	if _, ok := db.RandomKey(); ok {
		t.Fatal("RandomKey on empty DB")
	}
	db.Set("only", []byte("1"))
	k, ok := db.RandomKey()
	if !ok || k != "only" {
		t.Fatalf("RandomKey = %q, %v", k, ok)
	}
}

func TestJournalReceivesOps(t *testing.T) {
	db, vc := newTestDB()
	var ops []string
	db.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
		ops = append(ops, name)
		return nil
	}))
	db.Set("a", []byte("1"))
	db.SetEX("b", []byte("2"), time.Second)
	db.Del("a")
	vc.Advance(2 * time.Second)
	db.Get("b") // lazy expiry emits DEL
	want := []string{"SET", "SETEX", "DEL", "DEL"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("journal ops = %v, want %v", ops, want)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d-%d", g, i)
				db.Set(k, []byte("v"))
				db.Get(k)
				db.Expire(k, time.Hour)
				db.Del(k)
			}
		}(g)
	}
	wg.Wait()
	if db.RawLen() != 0 {
		t.Fatalf("residue after concurrent churn: %d", db.RawLen())
	}
}

func TestExpireSampleSliceConsistency(t *testing.T) {
	// Property: after an arbitrary interleaving of SetEX/Del/Persist, the
	// deadline heap holds exactly the keys whose entry carries a deadline.
	f := func(ops []uint8) bool {
		db, _ := newTestDB()
		for i, op := range ops {
			k := fmt.Sprintf("k%d", int(op)%10)
			switch i % 4 {
			case 0:
				db.SetEX(k, []byte("v"), time.Hour)
			case 1:
				db.Set(k, []byte("v"))
			case 2:
				db.Del(k)
			case 3:
				db.Persist(k)
			}
		}
		return checkSlots(db) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[ExpiryStrategy]string{
		ExpiryLazyProbabilistic: "lazy-probabilistic",
		ExpiryHeap:              "expiry-heap",
		ExpiryStrategy(99):      "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

// SetRecorded journals the caller's record where the engine's own would
// have gone: once per touched shard, in ascending shard order, with that
// shard's pairs, in the key's order against the engine's other records for
// it. Restore replays a pair
// without journaling.
func TestSetRecordedJournalsCallersRecord(t *testing.T) {
	db, vc := newTestDB()
	var log []string
	db.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
		log = append(log, name+" "+string(bytes.Join(args, []byte(" "))))
		return nil
	}))
	deadline := vc.Now().Add(time.Hour)
	if err := db.SetRecorded([]string{"k"}, [][]byte{[]byte("v1")}, nil, deadline, "REC", []byte("head")); err != nil {
		t.Fatal(err)
	}
	db.Del("k")
	if err := db.SetRecorded([]string{"k"}, [][]byte{[]byte("v2")}, nil, time.Time{}, "REC", []byte("h1"), []byte("h2")); err != nil {
		t.Fatal(err)
	}
	want := []string{"REC head k v1", "DEL k", "REC h1 h2 k v2"}
	if !slices.Equal(log, want) {
		t.Fatalf("journal = %q, want %q", log, want)
	}
	if _, has := db.Deadline("k"); has {
		t.Fatal("a zero deadline did not clear the TTL")
	}

	log = nil
	keys := make([]string, 40)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("batch%02d", i), []byte(fmt.Sprintf("val%02d", i))
	}
	if err := db.SetRecorded(keys, vals, nil, deadline, "REC", []byte("head")); err != nil {
		t.Fatal(err)
	}
	if len(log) < 2 || len(log) > db.ShardCount() {
		t.Fatalf("%d records for a batch over %d shards", len(log), db.ShardCount())
	}
	seen := map[string]string{}
	prev := -1
	for _, rec := range log {
		f := strings.Fields(rec)
		if f[0] != "REC" || f[1] != "head" || len(f)%2 != 0 {
			t.Fatalf("record %q", rec)
		}
		if s := int(fnv32a(f[2]) & db.mask); s <= prev {
			t.Fatalf("shard %d's record %q after shard %d's", s, rec, prev)
		} else {
			prev = s
		}
		first := db.shardFor(f[2])
		for i := 2; i < len(f); i += 2 {
			if db.shardFor(f[i]) != first {
				t.Fatalf("record %q spans shards", rec)
			}
			seen[f[i]] = f[i+1]
		}
	}
	for i, k := range keys {
		if seen[k] != string(vals[i]) {
			t.Fatalf("journal holds %q for %s", seen[k], k)
		}
		if v, ok := db.Get(k); !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("engine holds %q for %s", v, k)
		}
		if dl, has := db.Deadline(k); !has || !dl.Equal(deadline) {
			t.Fatalf("deadline of %s = %v, %v", k, dl, has)
		}
	}

	log = nil
	db.Restore("restored", []byte("v"), nil, deadline)
	if dl, has := db.Deadline("restored"); !has || !dl.Equal(deadline) || len(log) != 0 {
		t.Fatalf("Restore: deadline %v (%v), journaled %q", dl, has, log)
	}
}

// The journal's error for a SetRecorded record comes back to its caller and
// to nobody else.
func TestSetRecordedReturnsJournalError(t *testing.T) {
	db, _ := newTestDB()
	boom := errors.New("disk full")
	db.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
		if name == "REC" && string(args[len(args)-1]) == "bad" {
			return boom
		}
		return nil
	}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				val, want := "good", error(nil)
				if (i+g)%3 == 0 {
					val, want = "bad", boom
				}
				k := fmt.Sprintf("k%d-%d", g, i)
				if err := db.SetRecorded([]string{k}, [][]byte{[]byte(val)}, nil, time.Time{}, "REC"); err != want {
					t.Errorf("%s (%s): err %v, want %v", k, val, err, want)
				}
				db.Set(k+"x", []byte("v")) // untracked records pass through
			}
		}(g)
	}
	wg.Wait()
	if n := db.jq.nfailed.Load(); n != 0 || len(db.jq.failed) != 0 {
		t.Fatalf("%d uncollected journal errors", n)
	}
	if v, ok := db.Get("k0-0"); !ok || string(v) != "bad" {
		t.Fatal("the value of a write whose journaling failed was not stored")
	}
}
