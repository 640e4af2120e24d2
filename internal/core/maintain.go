package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/store"
)

// epochArg encodes a keyring epoch for a journal record argument.
func epochArg(e uint64) []byte {
	return []byte(strconv.FormatUint(e, 10))
}

// parseEpoch decodes an epoch journal argument.
func parseEpoch(b []byte) (uint64, error) {
	return strconv.ParseUint(string(b), 10, 64)
}

// recordDead reports whether rec is crypto-erased: sealed under a keyring
// epoch whose key has since been destroyed. Dead records are invisible to
// every read path and are reclaimed by the lazy-delete sweep.
func (s *Store) recordDead(rec *store.Record) bool {
	if s.keyring == nil || rec.Policy.Owner == "" {
		return false
	}
	return !s.keyring.RecordLive(rec.Policy.Owner, rec.Epoch)
}

// KeyVisible reports whether key is currently visible to clients: an owner
// record's is not, nor is one crypto-erased but not yet swept. A slot's key
// list (so a migration) filters through this.
func (s *Store) KeyVisible(key string) bool {
	if _, ok := ReservedKey(key); ok {
		return false
	}
	if s.keyring == nil {
		return true
	}
	e, _ := s.entryOf(key)
	return e.Record == nil || !s.recordDead(e.Record)
}

// markErasurePending registers owner with the lazy-delete sweep: the owner
// was crypto-shredded and dead ciphertext may remain in the engine. A
// replica keeps no pending set: it does not sweep, the primary's DELs take
// its dead records, and promotion re-derives the set (SetReplica).
func (s *Store) markErasurePending(owner string) {
	now := s.cfg.Config.Clock.Now()
	s.erasure.mu.Lock()
	if _, ok := s.erasure.pending[owner]; !ok && !s.replica.Load() {
		s.erasure.pending[owner] = now
	}
	s.erasure.mu.Unlock()
}

// rediscoverErasure re-marks every erased owner who still holds a record
// sealed under a destroyed key: the pending set is derived state, rebuilt
// after replay and on promotion.
func (s *Store) rediscoverErasure() {
	if s.keyring == nil {
		return
	}
	for _, k := range s.db.Keys(ownerKeyPrefix + "*") {
		owner, _ := ReservedKey(k)
		if s.erasedAt(owner) == 0 {
			continue
		}
		g, err := s.enter(owner)
		if err != nil {
			return
		}
		s.walkOwner(owner, func(_ string, e store.Entry) bool {
			if s.recordDead(e.Record) {
				s.markErasurePending(owner)
				return false
			}
			return true
		})
		g.RUnlock()
	}
}

// keylessOwners returns, with the latest epoch among them, every owner
// holding records that no erasure covers while the ring holds no key for
// it. Its slot was zeroed, or reused, before the erased owner record
// reached the AOF (the two files reach the disk in either order), or failed
// its checksum; or the key file is missing. Replay calls it once the AOF
// has replayed.
func (s *Store) keylessOwners() map[string]uint64 {
	keyless := map[string]uint64{}
	for _, owner := range s.ix.owners() {
		if _, keyed := s.keyring.KeyEpoch(owner); owner == "" || keyed {
			continue
		}
		erased := s.erasedAt(owner)
		s.walkOwner(owner, func(_ string, e store.Entry) bool {
			if e.Record.Epoch >= erased {
				keyless[owner] = max(keyless[owner], e.Record.Epoch)
			}
			return true
		})
	}
	return keyless
}

// SweepStats reports what one lazy-delete sweep cycle did.
type SweepStats struct {
	// Scanned counts records examined for deadness.
	Scanned int
	// Reclaimed counts dead records physically deleted.
	Reclaimed int
	// OwnersDrained counts owners whose dead ciphertext was fully
	// reclaimed, removing them from the pending set.
	OwnersDrained int
}

// ErasureSweepCycle runs one budgeted lazy-delete cycle: for each
// crypto-shredded owner still pending, it walks the owner's indexed keys
// and physically deletes those sealed under a destroyed key epoch. The
// budget caps deletions per cycle (scanning live entries is cheap; the
// deletions carry journal appends and replication traffic), so a single
// cycle never stalls foreground traffic for long.
//
// Each owner's walk is one call through the gate and takes no owner
// stripe, so foreground Puts/Gets interleave freely. An owner is drained
// only when a full walk of its keys found no remaining dead records.
func (s *Store) ErasureSweepCycle() SweepStats {
	var st SweepStats
	if s.keyring == nil || s.closed.Load() {
		return st
	}
	start := s.cfg.Config.Clock.Now()
	budget := s.cfg.sweepBudget
	s.erasure.mu.Lock()
	owners := make([]string, 0, len(s.erasure.pending))
	for o := range s.erasure.pending {
		owners = append(owners, o)
	}
	s.erasure.mu.Unlock()
	sort.Strings(owners)
	for _, owner := range owners {
		if st.Reclaimed >= budget {
			break
		}
		g, err := s.enter(owner)
		if err != nil {
			break
		}
		// A record is deleted only if its key still holds it: the key may
		// have been deleted, re-owned, or rewritten under a live epoch.
		complete := s.walkOwner(owner, func(k string, e store.Entry) bool {
			if st.Reclaimed >= budget || s.closed.Load() {
				return false
			}
			if s.recordDead(e.Record) && s.db.DeleteIf(k, e.Record) {
				st.Reclaimed++
			}
			st.Scanned++
			return true
		})
		g.RUnlock()
		if complete {
			s.erasure.mu.Lock()
			delete(s.erasure.pending, owner)
			s.erasure.mu.Unlock()
			st.OwnersDrained++
		}
	}
	if st.Reclaimed > 0 {
		// The reclaimed ciphertext still sits in AOF history; owe a
		// compaction so it stops persisting (snapshotRecords filters dead
		// records, so the rewrite drops it even if more sweeping remains).
		s.pendingRewrite.Store(true)
	}
	s.erasure.mu.Lock()
	s.erasure.cycles++
	s.erasure.reclaimed += uint64(st.Reclaimed)
	s.erasure.drained += uint64(st.OwnersDrained)
	s.erasure.lastCycle = s.cfg.Config.Clock.Since(start)
	s.erasure.mu.Unlock()
	return st
}

// DrainErasure runs sweep cycles until no shredded owner remains pending,
// as Maintain does before a compaction. Returns the accumulated stats.
func (s *Store) DrainErasure() SweepStats {
	var total SweepStats
	for {
		st := s.ErasureSweepCycle()
		total.Scanned += st.Scanned
		total.Reclaimed += st.Reclaimed
		total.OwnersDrained += st.OwnersDrained
		s.erasure.mu.Lock()
		n := len(s.erasure.pending)
		s.erasure.mu.Unlock()
		if n == 0 || (st.Reclaimed == 0 && st.OwnersDrained == 0) {
			return total
		}
	}
}

// maintainEvery is how many loop ticks pass between Maintain passes:
// 300 × ActiveExpireCyclePeriod, 30 s.
const maintainEvery = 300

// StartExpirer starts the store's one maintenance loop unless it runs
// already or the store is closed. Every store.ActiveExpireCyclePeriod it runs ExpiryCycle, then
// ErasureSweepCycle, and every maintainEvery-th tick Maintain. While the
// store is a replica (SetReplica) every duty is skipped: its deletions
// arrive as the primary's journaled DELs, as a Redis replica waits for
// its master's. StopExpirer and Close stop the loop.
func (s *Store) StartExpirer() {
	s.loop.mu.Lock()
	defer s.loop.mu.Unlock()
	if s.loop.stop != nil || s.closed.Load() {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	s.loop.stop, s.loop.done = stop, done
	go s.maintainLoop(stop, done)
}

// StartSweeper is StartExpirer: the sweep is one duty of that loop.
func (s *Store) StartSweeper() { s.StartExpirer() }

func (s *Store) maintainLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(store.ActiveExpireCyclePeriod)
	defer t.Stop()
	for tick := 1; ; tick++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if s.replica.Load() || s.closed.Load() {
			continue
		}
		s.ExpiryCycle()
		s.ErasureSweepCycle()
		if tick%maintainEvery == 0 {
			// No DrainErasure: the budgeted sweep above runs every tick,
			// and an unbudgeted one would hold up the next expiry cycle.
			s.maintain(false)
		}
	}
}

// StopExpirer stops the maintenance loop and waits for it to exit. Safe
// to call when the loop never ran.
func (s *Store) StopExpirer() {
	s.loop.mu.Lock()
	stop, done := s.loop.stop, s.loop.done
	s.loop.stop, s.loop.done = nil, nil
	s.loop.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// dutiesRunning reports whether the maintenance loop runs and, the store
// being a primary, does its duties.
func (s *Store) dutiesRunning() bool {
	s.loop.mu.Lock()
	defer s.loop.mu.Unlock()
	return s.loop.stop != nil && !s.replica.Load()
}

// SetReplica sets the store's replication role: a replica's maintenance
// loop idles, and a promoted one resumes every duty on its next tick.
// Demotion empties the erasure sweep's pending set and promotion
// re-derives it from the records the replica holds.
func (s *Store) SetReplica(replica bool) {
	s.erasure.mu.Lock()
	was := s.replica.Swap(replica)
	if replica {
		clear(s.erasure.pending)
	}
	s.erasure.mu.Unlock()
	if was && !replica {
		s.rediscoverErasure()
	}
}

// IsReplica reports whether the store is a replica (SetReplica).
func (s *Store) IsReplica() bool { return s.replica.Load() }

// ErasureStats is a point-in-time view of crypto-shredding and the
// lazy-delete sweep, surfaced through INFO erasure.
type ErasureStats struct {
	// Enabled reports whether envelope encryption (and therefore O(1)
	// crypto-shredding) is active.
	Enabled bool
	// ShreddedOwners counts erased owners: owner records that hold an
	// erasure.
	ShreddedOwners int
	// PendingOwners counts shredded owners whose dead ciphertext the sweep
	// has not fully reclaimed yet.
	PendingOwners int
	// PendingRecords counts the records pending owners still hold (records
	// expiry has reaped are not).
	PendingRecords int
	// Reclaimed is the total records physically deleted by sweeps.
	Reclaimed uint64
	// SweepCycles is the total sweep cycles run.
	SweepCycles uint64
	// OwnersDrained is the total owners fully reclaimed.
	OwnersDrained uint64
	// SweepLag is the age of the oldest still-pending shred — how far the
	// physical reclamation trails the logical erasure.
	SweepLag time.Duration
	// LastCycle is the duration of the most recent sweep cycle, measured
	// on the store's clock.
	LastCycle time.Duration
	// SweeperRunning reports whether the maintenance loop sweeps: it runs
	// and the store is a primary.
	SweeperRunning bool
	// CipherHits and CipherMisses count the keyring's prepared-cipher
	// lookups served from its cache and those that built a cipher: the hit
	// rate that justifies the cache's size.
	CipherHits, CipherMisses uint64
}

// ErasureStats reports the current crypto-shredding/sweep state.
func (s *Store) ErasureStats() ErasureStats {
	var st ErasureStats
	if s.keyring == nil {
		return st
	}
	st.Enabled = true
	st.ShreddedOwners = int(s.ix.erasedOwners.Load())
	st.CipherHits, st.CipherMisses = s.keyring.CipherStats()
	now := s.cfg.Config.Clock.Now()
	s.erasure.mu.Lock()
	st.PendingOwners = len(s.erasure.pending)
	var oldest time.Time
	pending := make([]string, 0, len(s.erasure.pending))
	for o, at := range s.erasure.pending {
		pending = append(pending, o)
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	st.Reclaimed = s.erasure.reclaimed
	st.SweepCycles = s.erasure.cycles
	st.OwnersDrained = s.erasure.drained
	st.LastCycle = s.erasure.lastCycle
	s.erasure.mu.Unlock()
	for _, o := range pending {
		st.PendingRecords += s.ix.ownerKeyCount(o)
	}
	if !oldest.IsZero() && now.After(oldest) {
		st.SweepLag = now.Sub(oldest)
	}
	st.SweeperRunning = s.dutiesRunning()
	return st
}

// emitRecord emits the one journal record that stands for key k holding
// e, with v as its value: GREC with e's metadata under e's deadline, or
// the engine's SET/SETEX for a key without metadata. The metadata is
// encoded into *mb, reused from call to call. Snapshots (v is the stored
// value) and slot migration (v is the plaintext) build their records here.
func emitRecord(emit func(name string, args ...[]byte) error, k string, e store.Entry, v []byte, mb *[]byte) error {
	switch {
	case e.Record == nil && e.Deadline.IsZero():
		return emit("SET", []byte(k), v)
	case e.Record == nil:
		return emit("SETEX", []byte(k), store.EncodeDeadline(e.Deadline), v)
	}
	m := metadataOf(e.Record, e.Deadline)
	*mb = appendMetadata((*mb)[:0], &m)
	return emit(opRecord, *mb, []byte(k), v)
}

// snapshotRecords emits the records of a compaction, a backup generation
// and a replica's full sync, and no key: one record per live key (GREC
// with its metadata, an owner record's too; SET/SETEX for a key that has
// none). Callers hold lockAll, so the cut is globally consistent. A
// snapshot holds the current record format only, and each record one
// deadline: the engine's, which is the one enforced.
//
// Crypto-erased records the sweep has not reclaimed yet are omitted, so a
// compaction purges dead ciphertext from the AOF even while the in-memory
// sweep is still running. emit must not keep its arguments.
func (s *Store) snapshotRecords(emit func(name string, args ...[]byte) error) error {
	var mb []byte
	return s.db.SnapshotRecords(func(k string, e store.Entry) error {
		if e.Record != nil && s.recordDead(e.Record) {
			return nil
		}
		return emitRecord(emit, k, e, e.Value, &mb)
	})
}

// rewriteLocked compacts the AOF so deleted/erased personal data stops
// persisting in the log. Callers hold the whole-store lock (lockAll).
func (s *Store) rewriteLocked(ctx Ctx) error {
	if s.log == nil {
		s.pendingRewrite.Store(false)
		return nil
	}
	before := s.log.Size()
	if err := s.log.Rewrite(s.snapshotRecords); err != nil {
		return fmt.Errorf("core: aof compaction: %w", err)
	}
	s.pendingRewrite.Store(false)
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "REWRITE", Outcome: audit.OutcomeOK,
		Detail: fmt.Sprintf("bytes=%d->%d", before, s.log.Size()),
	})
	return nil
}

// Compact forces an AOF compaction now, regardless of timing mode.
func (s *Store) Compact(ctx Ctx) error {
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.rewriteLocked(ctx)
}

// MaintStats reports what one maintenance pass did.
type MaintStats struct {
	// GrantsPurged counts expired ACL grants removed.
	GrantsPurged int
	// ErasedReclaimed counts crypto-shredded records physically deleted by
	// this pass.
	ErasedReclaimed int
	// Rewrote reports whether a deferred AOF compaction ran.
	Rewrote bool
	// Took is the duration of the pass, measured on the store's clock.
	Took time.Duration
}

// Maintain runs one maintenance pass: it purges expired grants, reclaims
// every crypto-erased record the sweep has not yet, and performs any deferred
// AOF compaction (the "eventual" half of the compliance spectrum — erasure
// work postponed off the critical path lands here).
func (s *Store) Maintain() MaintStats { return s.maintain(true) }

// maintain is Maintain; drain runs the sweep to completion first. The
// compaction drops dead records whether or not they were swept
// (snapshotRecords).
func (s *Store) maintain(drain bool) MaintStats {
	start := s.cfg.Config.Clock.Now()
	var st MaintStats
	if drain {
		// The sweep's own walks, each through the gate, before the global
		// locks; it owes the compaction below for what it reclaims.
		st.ErasedReclaimed = s.DrainErasure().Reclaimed
	}
	s.lockAll()
	st.GrantsPurged = s.acl.PurgeExpired()
	if s.pendingRewrite.Load() {
		if err := s.propagateErasureLocked(Ctx{Actor: "system:maintenance"}); err == nil {
			st.Rewrote = true
		}
	}
	s.unlockAll()
	st.Took = s.cfg.Config.Clock.Since(start)
	return st
}

// MetaCount returns the number of records the owner index holds: every
// record with an owner, none the engine has dropped. For tests and
// introspection; it visits every owner.
func (s *Store) MetaCount() int {
	n := 0
	for i := range s.ix.byOwner {
		sh := &s.ix.byOwner[i]
		sh.mu.Lock()
		for _, set := range sh.m {
			n += set.keys.n
		}
		sh.mu.Unlock()
	}
	return n
}
