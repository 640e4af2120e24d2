package core

import (
	"slices"
	"sync"
)

// The compliance layer used to serialise every operation on one Store-wide
// mutex; GPUT/GGET for different data subjects contended even though they
// share no state. It now uses striped locking at two granularities, chosen
// per operation:
//
//   - ownerStripes serialise owner-scoped state: the standing objections
//     map, the keyring entry, and the owner's key set (Put/PutBatch,
//     Forget, Object, ...). Operations for different owners take
//     different stripes and proceed in parallel.
//   - keyStripes serialise the per-key compound invariant "engine value and
//     metadata-index entry agree" (Put, Get, Delete, Expire, ...). An
//     operation that knows its owner takes the owner stripe first, then
//     the key stripe(s); key-only operations (Get, Delete — the owner is
//     discovered from the metadata) take just the key stripe.
//
// Whole-store operations (AOF rewrite/snapshot, Maintain, Close, replay)
// take gmu and then every stripe, in index order — the deterministic
// lock-ordering protocol that makes cross-stripe operations deadlock-free:
//
//	gmu → ownerStripes (ascending) → keyStripes (ascending) → subsystem locks
//
// No operation takes more than one owner stripe, key stripes are always
// acquired after the (single) owner stripe and in ascending index order
// when more than one is held, and the engine/AOF/audit/ACL/keyring locks
// are leaves. The engine below has its own shard locks; the audit trail,
// AOF, ACL and keyring have their own internal locks.
//
// Owner-scoped reads (GetUser and what is built on it) hold the owner
// stripe only to decide and to snapshot: ACL check, the owner's key list,
// its data key and key epoch. The walk over the records then runs with the
// stripe released, one key stripe at a time (walkKeys), re-validating each
// record's owner and epoch under that stripe, and the epoch is read again
// at the end: a Forget that got in between makes the whole answer the
// erased one, never part of a report. Writers for the owner therefore wait
// for a snapshot, not for a walk. Without a keyring there is no epoch to
// re-read, so there the stripe stays held across the walk.
//
// The erasure sweeper (maintain.go) deliberately stays at the bottom of
// this ordering: it holds ONE key stripe at a time while reclaiming a
// dead record and never takes an owner stripe or gmu, so it can run
// concurrently with the foreground compliance path without joining the
// stop-the-world protocol. erasureState.mu (pending-owner set and sweep
// counters) is a leaf like the keyring's internal lock: it is only ever
// acquired last and nothing is called while holding it.
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
// walkKeys. Callers that need the key set frozen hold owner's stripe.
func (s *Store) walkOwner(owner string, fn func(key string, m *Metadata) bool) bool {
	return s.walkKeys(owner, s.ix.ownerKeys(owner), fn)
}

// walkKeys visits, in key order, those of keys (a snapshot of owner's key
// set, which it sorts) that still belong to owner. fn runs under the key's
// stripe, taken one at a time per the ordering protocol, with the key's
// current metadata: a key deleted since the snapshot, or re-Put by another
// subject, is skipped, so nothing of theirs is ever touched or reported.
// fn returns false to stop; walkKeys reports whether it reached the end.
func (s *Store) walkKeys(owner string, keys []string, fn func(key string, m *Metadata) bool) bool {
	slices.Sort(keys)
	for _, k := range keys {
		ks := s.keyStripeFor(k)
		ks.Lock()
		m := s.ix.get(k)
		more := m == nil || m.Owner != owner || fn(k, m)
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
