package core

import (
	"sync"
	"unsafe"

	"gdprstore/internal/store"
)

// The compliance layer keeps no table of its own beside the engine's: a
// key's value, retention deadline and compliance record are one engine entry
// (store.Record, metadata.go), installed and dropped together under the
// engine's shard lock, so they cannot disagree. A read-check-write of one key
// (Delete and Expire check the record's owner, the sweep and an eager
// Forget delete records, a migration removes the bytes it sent) ends in one of the engine's conditional operations
// (store/conditional.go), which act and journal under the shard lock only if
// the key still holds what the caller checked. Two stripe arrays remain, and
// neither guards a map:
//
//   - gate stripes are the whole-store barrier. Every data-path call
//     read-locks exactly one, by its key, its owner or its batch's first
//     key, checks closed under it, holds it until what it journaled and
//     audited is handed off, and never takes a second. Only lockAll
//     write-locks them, so an AOF rewrite, a replica snapshot, Maintain and
//     Close wait out every call in flight.
//   - owner stripes serialise an owner's read-check-writes of owner-scoped
//     state: its owner record (standing objections, rights.go), keyring
//     entry, shared policy and key set (Put/PutBatch, Forget, Object, ...).
//
// Below them come the engine's shard locks, and below those the owner and
// purpose index stripes (metaIndex), leaves the engine's record observer
// takes for one map operation. Whole-store operations take gmu, then every
// gate stripe and every owner stripe, in index order:
//
//	gmu → gate stripe (shared) → owner stripe → engine shard → index stripe
//
// No call holds more than one gate stripe or owner stripe; the
// AOF/audit/ACL/keyring locks and erasureState.mu are leaves.
//
// Owner-scoped reads (GetUser and what is built on it) hold the owner
// stripe only to decide and to snapshot: ACL check, the owner's key list,
// its data key and key epoch. The walk (walkKeys) then takes no lock of this
// layer: one engine probe per record, re-validating owner and epoch, one
// journal hand-off at the end, the values opened in the report's own buffer,
// and the epoch read again, so a Forget that got in between makes the whole
// answer the erased one. Without a keyring there is no epoch to re-read, so
// there the stripe stays held across the walk.
const stripeCount = 64 // power of two

// gateStripe is one stripe of the whole-store barrier, padded to two cache
// lines so that no two stripes' reader counts share one, wherever the array
// starts: every call in flight writes its stripe's.
type gateStripe struct {
	sync.RWMutex
	_ [128 - unsafe.Sizeof(sync.RWMutex{})]byte
}

// ownerStripe is one stripe of the owner locks, padded as gateStripe is:
// every write locks its owner's.
type ownerStripe struct {
	sync.Mutex
	_ [128 - unsafe.Sizeof(sync.Mutex{})]byte
}

func stripeIndex(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h & (stripeCount - 1)
}

// lockOwner locks owner's stripe and returns it, for the caller to unlock.
func (s *Store) lockOwner(owner string) *ownerStripe {
	os := &s.owners[stripeIndex(owner)]
	os.Lock()
	return os
}

// enter admits one data-path call through the gate stripe of its first name,
// which stays read-locked until the call releases it; once Close has begun,
// it refuses. No call may name an owner record's key, in any position.
func (s *Store) enter(names ...string) (*gateStripe, error) {
	for _, name := range names {
		if _, ok := ReservedKey(name); ok {
			return nil, ErrReservedKey
		}
	}
	return s.gateOf(names[0])
}

// gateOf is enter without the reserved-key refusal, for the slot migration
// primitives, which move an owner record as one more key of its subject.
func (s *Store) gateOf(name string) (*gateStripe, error) {
	g := &s.gate[stripeIndex(name)]
	g.RLock()
	if s.closed.Load() {
		g.RUnlock()
		return nil, ErrClosed
	}
	return g, nil
}

// enterRights is enter for an owner-scoped rights operation, which only a
// compliant store offers.
func (s *Store) enterRights(owner string) (*gateStripe, error) {
	if !s.cfg.Compliant {
		return nil, ErrNotCompliant
	}
	return s.enter(owner)
}

// walkOwner visits every record the index attributes to owner; see
// walkKeys. It reads records, not data: the probe journals no READ.
// Callers that need the key set frozen hold owner's stripe.
func (s *Store) walkOwner(owner string, fn func(key string, e store.Entry) bool) bool {
	return s.walkKeys(owner, s.ix.ownerKeys(nil, owner), false, fn)
}

// walkBatch is how many keys walkKeys probes before it visits any of them:
// a constant, not an option. A batch of entries is 3.5 KB of stack.
const walkBatch = 64

// walkKeys visits, in key order, those of keys (a snapshot of owner's key
// set, which the index hands out ascending) that still hold a record of
// owner. fn runs, holding no lock, with the key's entry as one probe finds
// it, judged at one clock reading for the whole walk: a key deleted or
// expired since the snapshot, or re-Put by another subject, is skipped, and
// fn writes only through a conditional operation on the record it was shown.
// read journals each probe as a read of the key's data (store.DB.Probe).
//
// The walk probes a batch of walkBatch keys with one store.DB.Probe, which
// locks each engine shard the batch touches once, then visits them. The
// probes depend neither on each other nor on the visits, and the visits
// take no lock, so the cache misses of a batch's records and values are
// served together rather than one record at a time between two lock round
// trips. An entry may be up to one batch older than its visit, which the
// conditional operations already allow for. fn returns false to stop;
// walkKeys reports whether it reached the end, once one flush has handed the
// journal everything the walk observed or enqueued, the probes of a stopped
// batch included.
func (s *Store) walkKeys(owner string, keys []string, read bool, fn func(key string, e store.Entry) bool) bool {
	defer s.db.Flush()
	now := s.cfg.Config.Clock.Now()
	var batch [walkBatch]store.Entry
	var found [walkBatch]bool
	for len(keys) > 0 {
		n := min(len(keys), walkBatch)
		s.db.Probe(keys[:n], now, read, batch[:n], found[:n])
		for i, k := range keys[:n] {
			if found[i] && ownerOf(batch[i].Record) == owner && !fn(k, batch[i]) {
				return false
			}
		}
		keys = keys[n:]
	}
	return true
}

// lockAll acquires the whole-store write lock: gmu, every gate stripe, every
// owner stripe, in the global order. It is the stop-the-world half of the
// protocol, used by snapshot/rewrite, Maintain and Close.
func (s *Store) lockAll() {
	s.gmu.Lock()
	for i := range s.gate {
		s.gate[i].Lock()
	}
	for i := range s.owners {
		s.owners[i].Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.owners) - 1; i >= 0; i-- {
		s.owners[i].Unlock()
	}
	for i := len(s.gate) - 1; i >= 0; i-- {
		s.gate[i].Unlock()
	}
	s.gmu.Unlock()
}
