// Package store implements the key-value storage engine that stands in for
// Redis v4.0.11 in this reproduction. It models the pieces of Redis that the
// paper's experiments depend on:
//
//   - a hash-table keyspace (dict), split across N lock-striped shards so
//     operations on independent keys proceed in parallel. Redis keeps a
//     key's deadline in a second table, the expires dict; here it is a field
//     of the key's one dict entry, so every keyed operation is one probe.
//     The keys that carry a TTL are also held, once each, in a binary
//     min-heap ordered by deadline (expires) that each entry points back
//     into: the one expiry index;
//   - beside the value, the caller's record of the key (Record), carried
//     unread, dropped with the value, each change reported to OnRecord;
//   - lazy expiration on access, plus one of two active-expire cycles, fixed
//     when the DB is made. ExpiryHeap, the compliant one, pops every due key
//     off each shard's heap in O(due log n), so with a cycle every period an
//     expired key leaves memory within one ActiveExpireCyclePeriod of its
//     deadline, where the paper's fix scanned every TTL'd key for the same
//     bound. ExpiryLazyProbabilistic is Redis's cycle (every 100 ms sample 20
//     keys with TTLs, delete the expired ones, and repeat immediately while
//     ≥5 of the 20 were expired), drawing uniformly from the heap's slice:
//     the algorithm whose erasure lag Figure 2 measures, sampling law
//     unchanged;
//   - deletion primitives DEL/UNLINK/FLUSHALL and TTL primitives
//     EXPIRE/EXPIREAT/PERSIST/TTL.
//
// Concurrency model: keys are routed to shards by FNV-1a hash; each shard
// owns its own dict and deadline heap, guarded by one mutex.
// Journal records are enqueued under the owning shard's lock (fixing
// per-key order) but written to the Journal outside any shard lock via a
// group-commit queue (see journalQueue). The conditional operations
// (conditional.go) finish a caller's read-check-write of one key under its
// shard lock, so the caller needs no lock of its own. Cross-shard operations
// (FLUSHALL, SnapshotRecords) lock every shard in index order — the one
// deterministic multi-shard protocol — and Scan/Keys/Len lock one shard at
// a time, giving per-shard-consistent (not globally atomic) views, as
// Redis's SCAN guarantees do.
//
// The engine takes a clock.Clock so expiry behaviour can be driven by
// virtual time in tests and experiments.
package store

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"

	"gdprstore/internal/clock"
)

// Journal receives every mutating operation the engine performs, including
// deletions generated internally by expiry. The AOF and audit subsystems
// attach here. Records are appended outside the shard locks, but
// implementations must still not call back into the DB.
type Journal interface {
	AppendOp(name string, args ...[]byte) error
}

// JournalFunc adapts a function to the Journal interface.
type JournalFunc func(name string, args ...[]byte) error

// AppendOp implements Journal.
func (f JournalFunc) AppendOp(name string, args ...[]byte) error { return f(name, args...) }

// ExpiryStrategy selects how the active-expire cycle finds expired keys.
type ExpiryStrategy int

// Available expiry strategies.
const (
	// ExpiryLazyProbabilistic is Redis's algorithm: periodic random
	// sampling; expired keys may linger for hours (Figure 2). Unmodified
	// Redis, and the Figure 2 reproduction, run it.
	ExpiryLazyProbabilistic ExpiryStrategy = iota
	// ExpiryHeap pops exactly the due keys off each shard's deadline heap
	// in O(k log n): every expired key is gone after one cycle. Compliant
	// stores run it.
	ExpiryHeap
)

// String returns the strategy name.
func (s ExpiryStrategy) String() string {
	switch s {
	case ExpiryLazyProbabilistic:
		return "lazy-probabilistic"
	case ExpiryHeap:
		return "expiry-heap"
	default:
		return "unknown"
	}
}

// Constants of the Redis 4.0 active expire cycle, as described in §4.3 of
// the paper: once every 100 ms sample 20 random keys from the expires set;
// delete the expired ones; if ≥5 were deleted, repeat immediately. The
// budget is global, not per shard: the sharded engine samples 20 keys per
// loop across all shards combined, so the reclamation rate (and the
// Figure 2 erasure lag it produces) matches unsharded Redis.
const (
	// ActiveExpireCyclePeriod is the interval between cycle invocations.
	ActiveExpireCyclePeriod = 100 * time.Millisecond
	// ActiveExpireLookupsPerLoop is the sample size per loop iteration.
	ActiveExpireLookupsPerLoop = 20
	// ActiveExpireRepeatThreshold is the number of expired keys per sample
	// at which the loop repeats without waiting for the next period.
	ActiveExpireRepeatThreshold = ActiveExpireLookupsPerLoop / 4
)

// DefaultShards is the shard count used when Options.Shards is zero.
const DefaultShards = 16

// ErrNoKey is returned by operations that require an existing key.
var ErrNoKey = errors.New("store: no such key")

// Record is the compliance record a caller keeps in a key's entry:
// installed with the value by SetRecorded or Restore, dropped with it by
// every delete, expiry, flush and plain write. The engine never reads it. Records are immutable.
type Record struct {
	// Policy is the terms the record was stored under, shared by every
	// record written under the same ones.
	Policy *Policy
	// Created is when the record was first stored, in Unix nanoseconds.
	Created int64
	// Epoch is the key epoch the value was sealed under.
	Epoch uint64
}

// Policy is what a record's data subject agreed to, immutable once shared:
// owner, purposes, objections, origin, recipients, location, automated
// decision-making. Its meaning is the compliance layer's (internal/core).
type Policy struct {
	Owner      string
	Purposes   []string
	Objections []string
	Origin     string
	SharedWith []string
	Location   string
	Automated  bool
}

// Entry is a key's stored state as a lookup lends it out: the stored value
// itself (never written in place, so valid after the call; never write to
// it), the record (nil: none) and the deadline (zero: none).
type Entry struct {
	Value    []byte
	Record   *Record
	Deadline time.Time
}

// entry is everything the engine holds for one key.
type entry struct {
	// val is immutable once installed: writers replace the slice, never its
	// bytes. Lookup's callers rely on it.
	val []byte
	rec *Record
	// deadline is the key's expiry in Unix nanoseconds; 0 means none.
	deadline int64
	// slot is the key's position in its shard's deadline heap while
	// deadline != 0.
	slot int32
}

// deadAt reports whether the entry's deadline has passed at now (Unix ns):
// the key is gone for every reader, reclaimed or not.
func (e entry) deadAt(now int64) bool { return e.deadline != 0 && e.deadline <= now }

// lend is the entry as Lookup hands it out.
func (e entry) lend() Entry {
	return Entry{Value: e.val, Record: e.rec, Deadline: deadlineTime(e.deadline)}
}

// deadlineTime is an entry's deadline as a time (zero: none).
func deadlineTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// shard is one lock stripe of the keyspace: the dict, plus the deadline heap
// that serves expiry. Every field is guarded by mu.
type shard struct {
	mu   sync.Mutex
	dict map[string]entry

	// expires holds each key that carries a TTL exactly once, at its
	// entry's slot, ordered as a min-heap on the deadline. The due keys are
	// the subtree that heap order cuts off below the root, so the heap cycle
	// and the overdue count visit only them; and a uniform draw from the
	// slice is the one dictGetRandomKey over the expires dict makes in
	// Redis, the probabilistic cycle's sample.
	expires expiryHeap

	expired uint64 // keys removed by expiry (lazy or active)
}

// DB is a single keyspace, lock-striped across shards. All methods are safe
// for concurrent use; operations on keys in different shards proceed in
// parallel.
type DB struct {
	shards []*shard
	mask   uint32

	clk          clock.Clock
	jq           journalQueue
	journalReads bool
	onRecord     func(key string, old, new *Record)
	keep         func(key string, rec *Record) bool
	strategy     ExpiryStrategy

	// rnd drives the probabilistic cycle's shard-weighted sampling; it has
	// its own lock because cycles may run concurrently with everything.
	rndMu sync.Mutex
	rnd   *rand.Rand
}

// Options configures a DB.
type Options struct {
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
	// Seed seeds the sampling RNG for deterministic experiments; 0 means a
	// fixed default seed (the engine is deterministic by default so that
	// Figure 2 runs are repeatable).
	Seed int64
	// Strategy selects the active-expiry algorithm for the DB's life.
	Strategy ExpiryStrategy
	// JournalReads reproduces the paper's §4.1 modification: the AOF
	// normally records only mutations, so the retrofit extends it to log
	// every interaction — each Get/Exists emits a READ record to the
	// journal, turning every read into a read followed by a logging write.
	JournalReads bool
	// Shards is the lock-stripe count, rounded up to a power of two;
	// 0 means DefaultShards. 1 reproduces the old single-mutex engine.
	Shards int
}

// New creates an empty DB.
func New(opts Options) *DB {
	if opts.Clock == nil {
		opts.Clock = clock.NewWall()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := nextPow2(opts.Shards)
	if opts.Shards <= 0 {
		n = DefaultShards
	}
	db := &DB{
		shards:       make([]*shard, n),
		mask:         uint32(n - 1),
		clk:          opts.Clock,
		journalReads: opts.JournalReads,
		strategy:     opts.Strategy,
		rnd:          rand.New(rand.NewSource(seed)),
	}
	for i := range db.shards {
		db.shards[i] = &shard{dict: make(map[string]entry)}
	}
	return db
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fnv32a is FNV-1a over the key bytes — the shard router.
func fnv32a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// shardFor routes a key to its owning shard.
func (db *DB) shardFor(key string) *shard {
	return db.shards[fnv32a(key)&db.mask]
}

// ShardCount returns the number of lock stripes.
func (db *DB) ShardCount() int { return len(db.shards) }

// lockAll acquires every shard lock in index order — the deterministic
// ordering every cross-shard operation uses, so two concurrent cross-shard
// operations can never deadlock.
func (db *DB) lockAll() {
	for _, sh := range db.shards {
		sh.mu.Lock()
	}
}

func (db *DB) unlockAll() {
	for i := len(db.shards) - 1; i >= 0; i-- {
		db.shards[i].mu.Unlock()
	}
}

// SetJournal attaches a journal that observes every mutation. Pass nil to
// detach.
func (db *DB) SetJournal(j Journal) { db.jq.set(j) }

// OnRecord makes fn the observer of every key's record: it runs under the
// key's shard lock each time a record is installed, replaced or dropped
// (old or new nil for none), so the records fn has seen are exactly the
// ones the engine holds. fn must not call back into the DB. Set it before
// the DB is shared.
func (db *DB) OnRecord(fn func(key string, old, new *Record)) { db.onRecord = fn }

// KeepOnFlush makes fn the judge of what a FLUSHALL keeps: a key with a
// record and no deadline for which fn returns true outlives it, live or
// replayed (Apply), with its record. fn runs under every shard lock and must
// not call back into the DB. Set it before the DB is shared.
func (db *DB) KeepOnFlush(fn func(key string, rec *Record) bool) { db.keep = fn }

// recordChanged reports a record change of key to the observer. Callers hold
// key's shard lock.
func (db *DB) recordChanged(key string, old, new *Record) {
	if old != new && db.onRecord != nil {
		db.onRecord(key, old, new)
	}
}

// Set stores value under key, clearing any TTL (Redis SET semantics).
func (db *DB) Set(key string, value []byte) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	db.putLocked(sh, key, cloneBytes(value), nil, 0)
	db.jq.enqueue("SET", []byte(key), value)
	sh.mu.Unlock()
	db.jq.flush()
}

// SetEX stores value under key with a relative TTL.
func (db *DB) SetEX(key string, value []byte, ttl time.Duration) {
	db.SetAt(key, value, db.clk.Now().Add(ttl))
}

// SetAt stores value under key with an absolute deadline, journaled as the
// SETEX that SetEX writes.
func (db *DB) SetAt(key string, value []byte, deadline time.Time) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	db.putLocked(sh, key, cloneBytes(value), nil, deadlineNS(deadline))
	db.jq.enqueue("SETEX", []byte(key), EncodeDeadline(deadline), value)
	sh.mu.Unlock()
	db.jq.flush()
}

// SetRecorded stores each value under its key with one record and one
// absolute deadline (zero: none, clearing any TTL as Set does) and journals
// the caller's record of the write in place of the engine's own
// SET/SETEX/MSET: per touched shard, in ascending shard order (byShard),
// and under its lock where that record would have been enqueued,
// `name head... key value [key value ...]` with the shard's pairs.
// So the record keeps its key's place among the engine's other records
// (an expiry DEL, a later SET) on every leg of the journal. The engine does
// not read the record and Apply does not know its name: whoever replays the
// journal claims it and installs the pairs with Restore. The journal's error
// for these records is returned; the values are stored either way, as with
// every engine write.
func (db *DB) SetRecorded(keys []string, values [][]byte, rec *Record, deadline time.Time, name string, head ...[]byte) error {
	if len(keys) == 0 {
		return nil
	}
	ticket := db.jq.ticket(true)
	// Every touched shard's record is carved from one array.
	var recs [][]byte
	if ticket != 0 {
		recs = make([][]byte, 0, min(len(keys), len(db.shards))*len(head)+2*len(keys))
	}
	start := 0
	db.byShard(keys, func(sh *shard, i int, last bool) {
		db.installLocked(sh, keys[i], values[i], rec, deadline)
		if ticket == 0 {
			return
		}
		if len(recs) == start {
			recs = append(recs, head...)
		}
		recs = append(recs, []byte(keys[i]), values[i])
		if last {
			db.jq.enqueueTicket(ticket, name, recs[start:len(recs):len(recs)])
			start = len(recs)
		}
	})
	return db.jq.done(ticket)
}

// Restore installs value under key with a record (nil: none) and an
// absolute deadline (zero: none) without journaling it: the replay of one
// pair of a SetRecorded record.
func (db *DB) Restore(key string, value []byte, rec *Record, deadline time.Time) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	db.installLocked(sh, key, value, rec, deadline)
	sh.mu.Unlock()
}

// installLocked stores a copy of value under key with rec and sets or
// clears its deadline. Callers hold sh.mu.
func (db *DB) installLocked(sh *shard, key string, value []byte, rec *Record, deadline time.Time) {
	var ns int64
	if !deadline.IsZero() {
		ns = deadlineNS(deadline)
	}
	db.putLocked(sh, key, cloneBytes(value), rec, ns)
}

// putLocked writes key's entry, val with rec under deadline (0: none), and
// keeps the deadline heap in step: one probe for what the key had, one map
// write, and a sift of the key's heap node, which rewrites the slot of each
// key it moves past. Callers hold sh.mu.
func (db *DB) putLocked(sh *shard, key string, val []byte, rec *Record, deadline int64) {
	old, had := sh.dict[key]
	e := entry{val: val, rec: rec, deadline: deadline}
	switch hadTTL := had && old.deadline != 0; {
	case deadline == 0:
		if hadTTL {
			sh.unheapLocked(old.slot)
		}
	case hadTTL:
		e.slot = sh.siftLocked(int(old.slot), expiryNode{deadline, key})
	default:
		sh.expires = append(sh.expires, expiryNode{})
		e.slot = sh.siftLocked(len(sh.expires)-1, expiryNode{deadline, key})
	}
	sh.dict[key] = e
	db.recordChanged(key, old.rec, rec)
}

// SetKeepTTL stores value under key preserving an existing TTL (Redis SET
// ... KEEPTTL) but not its record, as any plain write. A key already past
// its deadline is expired first, as on any access, so the new value carries
// no TTL instead of a dead one.
func (db *DB) SetKeepTTL(key string, value []byte) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, _ := db.liveLocked(sh, key)
	db.keepTTLLocked(sh, key, e, value)
	db.jq.enqueue("SET", []byte(key), value, []byte("KEEPTTL"))
	sh.mu.Unlock()
	db.jq.flush()
}

// keepTTLLocked replaces the value of key's entry e (the zero entry for a
// new key) with a copy of value and drops its record. Callers hold sh.mu.
func (db *DB) keepTTLLocked(sh *shard, key string, e entry, value []byte) {
	old := e.rec
	e.val, e.rec = cloneBytes(value), nil
	sh.dict[key] = e
	db.recordChanged(key, old, nil)
}

// groupMax is the largest batch byShard groups on the stack: a walk's batch
// of probes (internal/core's walkBatch). groupShards is the largest shard
// count it counts there.
const (
	groupMax    = 64
	groupShards = 256
)

// byShard is the one way a multi-key operation takes shard locks. It runs
// body(sh, i, last) for each position i of keys under the lock of keys[i]'s
// shard sh, where last reports whether keys[i] is the last of that shard's
// keys. Each touched shard is locked once, the shards in ascending index
// order, and one shard's keys run in input order. So a batch's records
// reach the journal in one order, the same for the same batch, and a key's
// records keep their order against its other ones. The grouping is a
// counting sort of the positions by shard index; for up to groupMax keys it
// allocates nothing. body must not call back into the DB.
func (db *DB) byShard(keys []string, body func(sh *shard, i int, last bool)) {
	if len(keys) == 1 {
		sh := db.shardFor(keys[0])
		sh.mu.Lock()
		body(sh, 0, true)
		sh.mu.Unlock()
		return
	}
	var idxBuf [groupMax]uint32
	var posBuf [groupMax]int32
	var endBuf [groupShards + 1]int32
	idx, pos, end := idxBuf[:], posBuf[:], endBuf[:]
	if len(keys) > groupMax {
		idx, pos = make([]uint32, len(keys)), make([]int32, len(keys))
	}
	if len(db.shards) > groupShards {
		end = make([]int32, len(db.shards)+1)
	}
	// end[s+1] counts shard s's keys; summed, end[s] is where shard s's
	// positions start, and placing them moves it to where they end.
	for i, k := range keys {
		idx[i] = fnv32a(k) & db.mask
		end[idx[i]+1]++
	}
	for s := 1; s <= len(db.shards); s++ {
		end[s] += end[s-1]
	}
	for i := range keys {
		pos[end[idx[i]]] = int32(i)
		end[idx[i]]++
	}
	for lo := 0; lo < len(keys); {
		s := idx[pos[lo]]
		hi := int(end[s])
		sh := db.shards[s]
		sh.mu.Lock()
		for j := lo; j < hi; j++ {
			body(sh, int(pos[j]), j == hi-1)
		}
		sh.mu.Unlock()
		lo = hi
	}
}

// SetBatch stores every key/value pair, clearing any TTLs as Set does, with
// one lock acquisition and one MSET journal record per touched shard (see
// byShard): the amortisation the batch command family (MSET, GMPUT) is
// built on. keys and values must have equal length. The batch is atomic per
// shard, not globally: a concurrent reader may observe a cross-shard batch
// partially applied.
func (db *DB) SetBatch(keys []string, values [][]byte) {
	_ = db.SetRecorded(keys, values, nil, time.Time{}, "MSET")
}

// GetBatch reads every key with one lock acquisition per touched shard. The
// returned slices are positional: present[i] reports whether keys[i]
// existed (lazy expiry applies per key, as in Get).
func (db *DB) GetBatch(keys []string) (values [][]byte, present []bool) {
	values = make([][]byte, len(keys))
	present = make([]bool, len(keys))
	db.byShard(keys, func(sh *shard, i int, _ bool) {
		e, ok := db.liveLocked(sh, keys[i])
		db.logReadLocked(keys[i])
		if ok {
			values[i], present[i] = cloneBytes(e.val), true
		}
	})
	db.jq.flush()
	return values, present
}

// Get returns the value stored at key. Expired keys are lazily deleted on
// access and reported as missing, exactly as Redis does.
func (db *DB) Get(key string) ([]byte, bool) {
	e, ok := db.Lookup(key)
	// The copy needs no lock: stored values are never written in place.
	return cloneBytes(e.Value), ok
}

// Lookup is Get without the defensive copy: one probe that lends the stored
// slice, with the key's record and deadline. The engine never writes a
// stored value in place (every Set/Apply installs a fresh clone), so the
// slice stays valid and unchanged after the call returns, whatever happens
// to the key; callers must not write to it or hand it to code that might.
// Compliant reads decrypt straight from it.
func (db *DB) Lookup(key string) (Entry, bool) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	db.logReadLocked(key)
	sh.mu.Unlock()
	db.jq.flush()
	return e.lend(), ok
}

// Probe is Lookup for a walk over a batch of keys: found[i] and out[i] are
// keys[i]'s entry, judged against the caller's now, so the walk reads the
// clock once, and each touched shard is locked once (byShard). With read,
// each key journals a READ as Lookup's does; without, the walk reads
// records, not data, and journals none. What it journals (a lazy reap's
// DEL, a READ) stays in the queue: the caller must Flush before it acts on,
// or returns, anything it read, one hand-off per walk instead of one per
// key. out and found must be as long as keys.
func (db *DB) Probe(keys []string, now time.Time, read bool, out []Entry, found []bool) {
	ns := now.UnixNano()
	db.byShard(keys, func(sh *shard, i int, _ bool) {
		out[i], found[i] = db.peekLocked(sh, keys[i], ns, read)
	})
}

// Peek is Probe of one key without its READ record, for a caller that reads
// the key's record, not its data. The caller must Flush, as after Probe.
func (db *DB) Peek(key string, now time.Time) (Entry, bool) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, ok := db.peekLocked(sh, key, now.UnixNano(), false)
	sh.mu.Unlock()
	return e, ok
}

// RecordOf is key's record (nil: none), due or not, with no reap and nothing
// journaled. key does not outlive the call: a caller may build it on its stack.
func (db *DB) RecordOf(key string) *Record {
	sh := db.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dict[key].rec
}

// peekLocked is one key of a Probe: its entry judged at now (Unix ns), a
// lazy reap if it is past its deadline, and its READ record if read.
// Callers hold sh.mu and must flush the journal queue after releasing it.
func (db *DB) peekLocked(sh *shard, key string, now int64, read bool) (Entry, bool) {
	e, ok := sh.dict[key]
	if ok && e.deadAt(now) {
		db.reapLocked(sh, key, e)
		e, ok = entry{}, false
	}
	if read {
		db.logReadLocked(key)
	}
	return e.lend(), ok
}

// Flush returns once every record the engine has enqueued so far, by any
// caller, has been handed to the journal: after it, whatever a Probe or
// Peek observed is as durable as the journal makes it.
func (db *DB) Flush() { db.jq.flush() }

// logReadLocked emits a READ record when read-journaling is on (§4.1's
// "every read operation now has to be followed by a logging-write").
func (db *DB) logReadLocked(key string) {
	if db.journalReads {
		db.jq.enqueue("READ", []byte(key))
	}
}

// Exists reports whether key exists (and is not expired).
func (db *DB) Exists(key string) bool {
	sh := db.shardFor(key)
	sh.mu.Lock()
	_, ok := db.liveLocked(sh, key)
	sh.mu.Unlock()
	db.jq.flush()
	return ok
}

// Del removes the given keys and returns how many existed, one lock per
// touched shard (byShard). It matches both DEL and UNLINK (the engine frees
// memory synchronously either way; the distinction matters only for real
// Redis's background reclamation).
func (db *DB) Del(keys ...string) int {
	n := 0
	db.byShard(keys, func(sh *shard, i int, _ bool) {
		if e, ok := db.liveLocked(sh, keys[i]); ok {
			db.deleteLocked(sh, keys[i], e)
			db.jq.enqueue("DEL", []byte(keys[i]))
			n++
		}
	})
	db.jq.flush()
	return n
}

// FlushAll removes every key but what KeepOnFlush keeps. It locks all
// shards (in index order) so the flush is a single atomic point in the
// journal stream.
func (db *DB) FlushAll() {
	db.lockAll()
	db.resetAllLocked()
	db.jq.enqueue("FLUSHALL")
	db.unlockAll()
	db.jq.flush()
}

// Len returns the number of live keys, not counting keys that have expired
// but not yet been reclaimed (to observe the reclamation lag itself, use
// RawLen). Shards are counted one at a time; concurrent writers make the
// total approximate, as in any sharded store.
func (db *DB) Len() int {
	now := db.nowNS()
	n := 0
	for _, sh := range db.shards {
		sh.mu.Lock()
		overdue, _ := sh.overdueLocked(now)
		n += len(sh.dict) - overdue
		sh.mu.Unlock()
	}
	return n
}

// RawLen returns the number of keys physically present in the dict,
// including expired-but-unreclaimed keys. Figure 2 measures how long
// RawLen stays above Len.
func (db *DB) RawLen() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.Lock()
		n += len(sh.dict)
		sh.mu.Unlock()
	}
	return n
}

// ExpireLen returns the number of keys carrying a TTL (expired or not).
func (db *DB) ExpireLen() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.Lock()
		n += len(sh.expires)
		sh.mu.Unlock()
	}
	return n
}

// ExpiredCount returns the cumulative number of keys reclaimed by expiry.
func (db *DB) ExpiredCount() uint64 {
	var n uint64
	for _, sh := range db.shards {
		sh.mu.Lock()
		n += sh.expired
		sh.mu.Unlock()
	}
	return n
}

// RandomKey returns a live key, or false if the DB is empty. The shard is
// chosen at random (so all shards are reachable); within the shard, Go's
// map iteration supplies the randomness, as dictGetRandomKey does in
// Redis. Used by workloads and by tests.
func (db *DB) RandomKey() (string, bool) {
	start := db.randIntn(len(db.shards))
	for i := 0; i < len(db.shards); i++ {
		sh := db.shards[(start+i)%len(db.shards)]
		sh.mu.Lock()
		for k, e := range sh.dict {
			if e.deadline != 0 && e.deadAt(db.nowNS()) {
				db.reapLocked(sh, k, e)
				continue
			}
			sh.mu.Unlock()
			db.jq.flush()
			return k, true
		}
		sh.mu.Unlock()
	}
	db.jq.flush()
	return "", false
}

// randIntn returns a sample from the DB-level RNG, which has its own lock
// so sampling never piggybacks on a shard lock.
func (db *DB) randIntn(n int) int {
	db.rndMu.Lock()
	v := db.rnd.Intn(n)
	db.rndMu.Unlock()
	return v
}

// resetAllLocked empties every shard of all but what KeepOnFlush keeps.
// Callers hold every shard lock.
func (db *DB) resetAllLocked() {
	for _, sh := range db.shards {
		dict := make(map[string]entry)
		for k, e := range sh.dict {
			if e.rec != nil && e.deadline == 0 && db.keep != nil && db.keep(k, e.rec) {
				dict[k] = e
				continue
			}
			db.recordChanged(k, e.rec, nil)
		}
		sh.dict = dict
		clear(sh.expires)
		sh.expires = sh.expires[:0]
	}
}

// deleteLocked removes key, whose entry is e, from every structure of its
// shard. Callers hold sh.mu.
func (db *DB) deleteLocked(sh *shard, key string, e entry) {
	delete(sh.dict, key)
	if e.deadline != 0 {
		sh.unheapLocked(e.slot)
	}
	db.recordChanged(key, e.rec, nil)
}

// reapLocked deletes key, whose entry e is past its deadline, as an expiry:
// counted, and journaled as the DEL it amounts to. Callers hold sh.mu and
// must flush the journal queue after releasing it.
func (db *DB) reapLocked(sh *shard, key string, e entry) {
	db.deleteLocked(sh, key, e)
	sh.expired++
	db.jq.enqueue("DEL", []byte(key))
}

// liveLocked is the one probe behind every keyed operation: key's entry,
// after lazily deleting it if its TTL has passed (the clock is read only
// for a key that carries one). Callers hold sh.mu and must flush the
// journal queue after releasing it.
func (db *DB) liveLocked(sh *shard, key string) (entry, bool) {
	e, ok := sh.dict[key]
	if ok && e.deadline != 0 && e.deadAt(db.nowNS()) {
		db.reapLocked(sh, key, e)
		return entry{}, false
	}
	return e, ok
}

func (db *DB) nowNS() int64 { return db.clk.Now().UnixNano() }

// The first and last instants UnixNano can represent (1678, 2262).
var minDeadline, maxDeadline = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// deadlineNS is a deadline as entries hold it. Times UnixNano cannot
// represent clamp to the nearest one it can, and the one instant that would
// read as "none" moves a nanosecond early.
func deadlineNS(t time.Time) int64 {
	switch {
	case t.Before(minDeadline):
		return math.MinInt64
	case t.After(maxDeadline):
		return math.MaxInt64
	}
	if ns := t.UnixNano(); ns != 0 {
		return ns
	}
	return -1
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// EncodeDeadline renders a deadline as the engine's journal records carry
// it (SETEX/MSETEX/EXPIREAT).
func EncodeDeadline(t time.Time) []byte {
	return []byte(t.UTC().Format(time.RFC3339Nano))
}

// DecodeDeadline parses a deadline encoded by the journal (SETEX/EXPIREAT
// records). It is exported for the AOF loader.
func DecodeDeadline(b []byte) (time.Time, error) {
	return time.Parse(time.RFC3339Nano, string(b))
}
