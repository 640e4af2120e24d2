package core

import (
	"slices"
	"sync"
	"time"

	"gdprstore/internal/store"
)

// The compliance layer keeps no table of its own beside the engine's: a
// key's value, retention deadline and compliance record are one engine entry
// (store.Record, metadata.go), installed and dropped together under the
// engine's shard lock, so they cannot disagree. The layer locks state that
// spans keys, at two granularities chosen per operation:
//
//   - ownerStripes serialise owner-scoped state: the standing objections
//     map, the keyring entry, the owner's shared policy and key set
//     (Put/PutBatch, Forget, Object, ...). Operations for different owners
//     take different stripes and proceed in parallel.
//   - keyStripes serialise an operation's read-check-write of one key
//     (Delete and Expire read the owner from the record, check, then write)
//     and are what Close's barrier waits out. An operation that knows its
//     owner takes the owner stripe first, then the key stripe(s); key-only
//     operations (Get, Delete) take just the key stripe.
//
// Below them come the engine's shard locks, and below those the owner and
// purpose index stripes (metaIndex), leaves the engine's record observer
// takes for one map operation. Whole-store operations (AOF
// rewrite/snapshot, Maintain, Close) take gmu and then every stripe, in
// index order — the protocol that makes cross-stripe operations
// deadlock-free:
//
//	gmu → ownerStripes (ascending) → keyStripes (ascending) → engine shard → index stripe
//
// No operation takes more than one owner stripe, key stripes are acquired
// after it and in ascending order, and the AOF/audit/ACL/keyring locks are
// leaves beside the index stripes.
//
// Owner-scoped reads (GetUser and what is built on it) hold the owner
// stripe only to decide and to snapshot: ACL check, the owner's key list,
// its data key and key epoch. The walk then runs with the stripe released,
// one key stripe and one engine probe (value and record together) per
// record (walkKeys), re-validating its owner and epoch, and the epoch is
// read again at the end: a Forget that got in between makes the whole
// answer the erased one, never part of a report. Writers for the owner wait
// for a snapshot, not for a walk. Without a keyring there is no epoch to
// re-read, so there the stripe stays held across the walk.
//
// The erasure sweeper (maintain.go) stays at the bottom of this ordering:
// it holds ONE key stripe at a time while reclaiming a dead record and never
// takes an owner stripe or gmu, so it runs beside the foreground path
// without joining the stop-the-world protocol. erasureState.mu is a leaf
// like the keyring's internal lock: acquired last, nothing called under it.
const stripeCount = 64 // power of two

// ownerStripe guards one stripe of owner-scoped compliance state. The
// standing objections of owners hashing to this stripe live here, so
// different stripes never share a map.
type ownerStripe struct {
	mu sync.Mutex
	// objections holds standing per-owner objections applied to future
	// records (Art. 21 "object at any time"), for owners in this stripe.
	objections map[string]map[string]struct{}
}

func stripeIndex(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h & (stripeCount - 1)
}

func (s *Store) ownerStripeFor(owner string) *ownerStripe {
	return s.owners[stripeIndex(owner)]
}

func (s *Store) keyStripeFor(key string) *sync.Mutex {
	return &s.keys[stripeIndex(key)]
}

// keyStripesFor returns the distinct key-stripe indexes covering keys, in
// ascending order — the acquisition order for multi-key operations.
func (s *Store) keyStripesFor(keys []string) []int {
	var seen [stripeCount]bool
	for _, k := range keys {
		seen[stripeIndex(k)] = true
	}
	idxs := make([]int, 0, len(keys))
	for i, hit := range seen {
		if hit {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func (s *Store) lockKeyStripes(idxs []int) {
	for _, i := range idxs {
		s.keys[i].Lock()
	}
}

func (s *Store) unlockKeyStripes(idxs []int) {
	for i := len(idxs) - 1; i >= 0; i-- {
		s.keys[idxs[i]].Unlock()
	}
}

// walkOwner visits every record the index attributes to owner; see
// walkKeys. It reads records, not data: the probe journals no READ.
// Callers that need the key set frozen hold owner's stripe.
func (s *Store) walkOwner(owner string, fn func(key string, e store.Entry) bool) bool {
	return s.walkKeys(owner, s.ix.ownerKeys(owner), s.db.Peek, fn)
}

// walkKeys visits, in key order, those of keys (a snapshot of owner's key
// set, which it sorts) that still hold a record of owner. fn runs under the
// key's stripe, taken one at a time per the ordering protocol, with the
// key's entry as one probe finds it, judged at one clock reading for the
// whole walk: a key deleted or expired since the snapshot, or re-Put by
// another subject, is skipped, so nothing of theirs is ever touched or
// reported. fn returns false to stop; walkKeys reports whether it reached
// the end.
func (s *Store) walkKeys(owner string, keys []string, probe func(string, time.Time) (store.Entry, bool), fn func(key string, e store.Entry) bool) bool {
	slices.Sort(keys)
	now := s.cfg.Config.Clock.Now()
	for _, k := range keys {
		ks := s.keyStripeFor(k)
		ks.Lock()
		e, ok := probe(k, now)
		more := !ok || ownerOf(e.Record) != owner || fn(k, e)
		ks.Unlock()
		if !more {
			return false
		}
	}
	return true
}

// lockAll acquires the whole-store write lock: gmu, every owner stripe,
// every key stripe, in the global order. It is the stop-the-world half of
// the protocol, used by snapshot/rewrite, Maintain, Close and replay-time
// state swaps.
func (s *Store) lockAll() {
	s.gmu.Lock()
	for _, os := range s.owners {
		os.mu.Lock()
	}
	for i := range s.keys {
		s.keys[i].Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.keys) - 1; i >= 0; i-- {
		s.keys[i].Unlock()
	}
	for i := len(s.owners) - 1; i >= 0; i-- {
		s.owners[i].mu.Unlock()
	}
	s.gmu.Unlock()
}

func newOwnerStripes() []*ownerStripe {
	out := make([]*ownerStripe, stripeCount)
	for i := range out {
		out[i] = &ownerStripe{objections: make(map[string]map[string]struct{})}
	}
	return out
}
