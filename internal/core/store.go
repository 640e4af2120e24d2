package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/backup"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/replica"
	"gdprstore/internal/store"
)

// Journal record types appended by the compliance layer alongside the
// engine's SET/DEL/EXPIREAT records. They reconstruct GDPR state on replay.
// Metadata payloads are the record codec's binary form (codec.go).
const (
	// GREC metadata key value [key value ...]: a compliant write, whole —
	// stored value, metadata with the one retention deadline (Expiry) and the
	// key epoch — journaled by the engine in place of its own SET/SETEX
	// (store.DB.SetRecorded), one per Put and one per touched shard of a
	// PutBatch.
	opRecord = "GREC"
	// GKEY owner wrappedDataKey epoch: on the replication stream only; the
	// AOF's keys are in the key file (aof.Keys), and replay refuses one.
	opKey    = "GKEY"
	opForget = "GFORGET" // GFORGET owner [mode] (Article 17 erasure marker)
)

// forgetModeShred is the GFORGET mode argument emitted by the crypto-shred
// fast path: the marker records that erasure was effected by destroying the
// owner's key, and that the owner's ciphertext is reclaimed lazily by the
// sweep rather than by DELs preceding the marker.
const forgetModeShred = "shred"

// Ctx identifies who is performing an operation and why — the two
// dimensions GDPR conditions every access on.
type Ctx struct {
	// Actor is the authenticated principal issuing the operation.
	Actor string
	// Purpose is the declared processing purpose (Art. 5).
	Purpose string
}

// PutOptions carries the GDPR metadata for a write.
type PutOptions struct {
	// Owner is the data subject; required for personal data under full
	// compliance.
	Owner string
	// Purposes whitelists processing purposes. Defaults to the writing
	// context's purpose when empty.
	Purposes []string
	// TTL is the retention bound relative to now. Mutually exclusive with
	// ExpireAt; ExpireAt wins if both are set.
	TTL time.Duration
	// ExpireAt is the absolute retention deadline.
	ExpireAt time.Time
	// Origin records where the data came from.
	Origin string
	// SharedWith lists recipients the record is disclosed to.
	SharedWith []string
	// Location is the storage region; defaults to Config.DefaultLocation.
	Location string
	// AutomatedDecisions marks use in automated decision-making.
	AutomatedDecisions bool
}

// Store is a GDPR-compliant key-value store: the engine plus metadata
// indexing, auditing, access control, encryption, retention and location
// policy, configured to a point on the compliance spectrum.
//
// Concurrency: the store uses striped locking (see locks.go) so operations
// for different data subjects proceed in parallel and reads share their
// stripe; whole-store operations (compaction, maintenance, close) quiesce
// every stripe in deterministic order.
type Store struct {
	cfg normalized

	// gmu orders whole-store operations (rewrite/snapshot, replication
	// topology, backup manager, close) ahead of the stripes; see locks.go
	// for the full lock-ordering protocol.
	gmu    sync.Mutex
	gate   [stripeCount]gateStripe
	owners [stripeCount]ownerStripe

	db      *store.DB
	ix      *metaIndex
	trail   *audit.Trail
	log     *aof.Log
	acl     *acl.List
	keyring *cryptoutil.Keyring
	keys    *aof.Keys // the keyring's durable home (nil: no AOF or no envelope)

	// hub and backups are guarded by gmu. streamJ mirrors hub behind an
	// atomic pointer so the hot appendLog path can reach the replication
	// stream without taking gmu.
	hub     *replica.Hub
	streamJ atomic.Pointer[replica.Hub]
	backups *backup.Manager

	pendingRewrite atomic.Bool
	closed         atomic.Bool
	// replica is the store's replication role (SetReplica): while it is
	// set the maintenance loop runs no duty.
	replica atomic.Bool
	// loop is the one maintenance goroutine (StartExpirer, maintain.go).
	loop struct {
		mu         sync.Mutex
		stop, done chan struct{}
	}

	// erasure tracks crypto-shredded owners whose dead ciphertext awaits
	// the lazy-delete sweep, plus sweep statistics (see maintain.go). Its
	// mutex is a leaf lock in the ordering protocol: nothing is called
	// under it.
	erasure erasureState
}

// erasureState is the bookkeeping behind O(1) erasure: which owners were
// shredded but still have ciphertext in the engine, and what the sweep has
// reclaimed so far.
type erasureState struct {
	mu      sync.Mutex
	pending map[string]time.Time // owner -> when the shred was observed

	reclaimed uint64 // records physically deleted by sweeps
	drained   uint64 // owners whose dead ciphertext is fully reclaimed
	cycles    uint64 // sweep cycles run
	lastCycle time.Duration
}

// Open builds a Store from the configuration, replaying any existing AOF.
func Open(cfg Config) (*Store, error) {
	n := cfg.normalize()
	s := &Store{cfg: n, ix: newMetaIndex()}
	s.erasure.pending = make(map[string]time.Time)
	s.db = store.New(store.Options{
		Clock:        n.Config.Clock,
		Seed:         n.Seed,
		Strategy:     n.strategy,
		JournalReads: n.JournalReads,
		Shards:       n.Shards,
	})
	s.db.OnRecord(s.ix.changed)
	s.db.KeepOnFlush(erasedOwnerRecord)
	s.acl = acl.New(n.Config.Clock)
	s.acl.SetEnforce(n.Config.Compliant && n.enforceACL)

	if n.Envelope {
		if len(n.MasterKey) != cryptoutil.BlockCipherKeySize {
			return nil, errors.New("core: envelope encryption requires a 32-byte MasterKey")
		}
		kr, err := cryptoutil.NewKeyring(n.MasterKey)
		if err != nil {
			return nil, err
		}
		s.keyring = kr
	}

	// Every refusal (a retired record form, a retired trail) comes before
	// anything is created or written: replay only reads, the key file
	// holds what replay writes to it until Start, and the trail opens
	// before the AOF does.
	var keyless map[string]uint64
	if n.AOFPath != "" {
		keysPath := n.AOFPath + ".keys"
		if s.keyring != nil {
			keys, err := aof.OpenKeys(keysPath, n.AtRestKey, s.keyring.ImportAt)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			s.keys = keys
		}
		if err := s.replay(n.AOFPath, n.AtRestKey); err != nil {
			return nil, err
		}
		if s.keys != nil {
			keyless = s.keylessOwners()
			// Shredding every owner because the file is not there would
			// erase what restoring the file would bring back.
			if _, err := os.Stat(keysPath); len(keyless) > 0 && errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("core: %s holds records of %d owners and the key file %s is missing: restore it", n.AOFPath, len(keyless), keysPath)
			}
		}
	}

	if n.Config.Compliant && n.AuditEnabled {
		opts := audit.Options{
			Path:         n.AuditPath,
			Mode:         n.auditMode,
			Key:          n.AtRestKey,
			Clock:        n.Config.Clock,
			QueueDepth:   n.AuditQueueDepth,
			Backpressure: n.auditBP,
		}
		if n.AuditMask {
			mk, err := auditMaskKey(n)
			if err != nil {
				return nil, err
			}
			opts.MaskKey = mk
		}
		if n.AuditSocket != "" {
			sock, err := audit.NewSocketSink(n.AuditSocket)
			if err != nil {
				return nil, err
			}
			opts.ExtraSinks = append(opts.ExtraSinks, sock)
		}
		t, err := audit.Open(opts)
		if err != nil {
			return nil, err
		}
		s.trail = t
	}

	if n.AOFPath != "" {
		log, err := aof.Open(n.AOFPath, aof.Options{Policy: n.aofSync, Key: n.AtRestKey})
		if err == nil && s.keys != nil {
			// Every fsync of the AOF fsyncs the key file first, which now
			// takes what replay moved into it or zeroed.
			log.SyncFirst(s.keys)
			if err = s.keys.Start(); err != nil {
				log.Close()
				s.keys.Close()
			}
		}
		if err != nil {
			if s.trail != nil {
				s.trail.Close()
			}
			return nil, err
		}
		s.log = log
		// The engine journals every mutation — including expiry-generated
		// deletions — straight into the AOF.
		s.db.SetJournal(store.JournalFunc(log.Append))
	}
	// The key of a keyless owner is gone, so the owner is erased past its
	// records' epoch, and the owner record journaled: left unmarked, its
	// next Put would make a key at the same epoch, under which the old
	// records would count as live and fail to open.
	for owner, epoch := range keyless {
		if err := s.setOwner(owner, s.Objections(owner), epoch+1, true); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// auditMaskKey resolves the pseudonymization key: the at-rest key, else a
// fresh random per-process key (pseudonyms then do not survive a restart,
// which is still a valid — if stricter — posture: old trail lines become
// permanently unresolvable).
func auditMaskKey(n normalized) ([]byte, error) {
	if len(n.AtRestKey) > 0 {
		return n.AtRestKey, nil
	}
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("core: audit mask key: %w", err)
	}
	return k, nil
}

// replay runs before the store is shared, so it needs no stripe locks. The
// record interpretation is applyRecord (replicated.go), shared with the live
// replication link, except that a data key (GKEY) is refused here: the key
// file holds them since the previous release. It stops at the first record
// in a retired form and names the upgrade step.
func (s *Store) replay(path string, key []byte) error {
	n, err := aof.Load(path, key, func(name string, args [][]byte) error {
		if name == opKey {
			return fmt.Errorf("%w: GKEY (a data key in the AOF)", ErrRetiredFormat)
		}
		return s.applyRecord(name, args)
	})
	if errors.Is(err, ErrRetiredFormat) {
		return fmt.Errorf("core: %s, record %d: %w; start the previous release on this data dir and run COMPACT", path, n, err)
	} else if err != nil {
		return err
	}
	// Rediscover crypto-shredded ciphertext that replayed back in, so
	// reclamation resumes where the previous process left off.
	s.rediscoverErasure()
	return nil
}

// appendLog journals an owner-scoped compliance-layer record (an erasure
// marker) to the AOF and mirrors it to the replication stream, while the
// caller holds the owner's stripe, so it keeps its place among the owner's
// other records. A record about one key goes through the engine instead
// (SetRecorded, the conditional operations), enqueued under the key's shard
// lock, where its place among the key's records is fixed. A nil log with no
// stream attached is a no-op.
func (s *Store) appendLog(name string, args ...[]byte) error {
	if h := s.streamJ.Load(); h != nil {
		_ = h.AppendOp(name, args...)
	}
	if s.log == nil {
		return nil
	}
	return s.log.Append(name, args...)
}

// auditOp records an audit entry; a nil trail is a no-op.
func (s *Store) auditOp(r audit.Record) {
	if s.trail == nil {
		return
	}
	// Audit failures must not fail the data path; the trail retains its
	// own LastErr for health checks, and strict deployments alert on it.
	_, _ = s.trail.Append(r)
}

// check runs an ACL decision and audits denials.
func (s *Store) check(ctx Ctx, op acl.OpClass, owner, opName, key string) error {
	d := s.acl.Check(ctx.Actor, op, owner, ctx.Purpose)
	if d.Allowed {
		return nil
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: opName, Key: key, Owner: owner,
		Purpose: ctx.Purpose, Outcome: audit.OutcomeDenied, Detail: d.Reason,
	})
	return fmt.Errorf("%w: %s", ErrDenied, d.Reason)
}

// writeTerms resolves what a write for opts stores beside its values, from
// one clock reading: the shared policy, the creation time and the retention
// deadline. It enforces the write's owner, retention and location rules,
// auditing a location denial as op on key, and refuses an erased owner's
// write with ErrErased, read from the owner's owner record. Callers hold
// owner's stripe.
func (s *Store) writeTerms(ctx Ctx, op, key string, opts PutOptions) (p *store.Policy, now, deadline time.Time, err error) {
	full := s.cfg.Capability == CapabilityFull
	if full && opts.Owner == "" {
		return nil, now, deadline, ErrNoOwner
	}

	purposes := opts.Purposes
	if len(purposes) == 0 && ctx.Purpose != "" {
		purposes = s.ix.defaultPurposes(opts.Owner, ctx.Purpose)
	}

	// The clock is read once: the record has one creation time and one
	// deadline, the one the engine enforces and the journal carries.
	now = canonicalTime(s.cfg.Config.Clock.Now())
	deadline = s.effectiveDeadline(now, opts)
	if s.cfg.requireTTL && deadline.IsZero() {
		return nil, now, deadline, ErrNoTTL
	}

	// Location policy (Art. 46).
	loc := opts.Location
	if loc == "" {
		loc = s.cfg.DefaultLocation
	}
	if len(s.cfg.AllowedLocations) > 0 && full && !slices.Contains(s.cfg.AllowedLocations, loc) {
		s.auditOp(audit.Record{
			Actor: ctx.Actor, Op: op, Key: key, Owner: opts.Owner,
			Purpose: ctx.Purpose, Outcome: audit.OutcomeDenied,
			Detail: "location " + loc + " not permitted",
		})
		return nil, now, deadline, fmt.Errorf("%w: %q", ErrLocationDenied, loc)
	}

	if s.Erased(opts.Owner) {
		return nil, now, deadline, fmt.Errorf("%w: %s", ErrErased, opts.Owner)
	}
	p = s.ix.policy(&store.Policy{
		Owner: opts.Owner, Purposes: purposes, Origin: opts.Origin,
		SharedWith: opts.SharedWith, Location: loc, Automated: opts.AutomatedDecisions,
	})
	return p, now, deadline, nil
}

// Put stores personal data under key with the supplied GDPR metadata.
func (s *Store) Put(ctx Ctx, key string, value []byte, opts PutOptions) error {
	if !s.cfg.Compliant {
		s.db.Set(key, value)
		return nil
	}
	return s.put(ctx, "PUT", []string{key}, [][]byte{value}, opts)
}

// put is the one compliant write body, of Put (op PUT, one key) and
// PutBatch (op MPUT): one gate stripe, by the first key, then the owner
// stripe, one ACL decision, one set of terms (writeTerms), one install and
// one audit record, whatever the number of keys. vals is the caller's own
// and is overwritten.
func (s *Store) put(ctx Ctx, op string, keys []string, vals [][]byte, opts PutOptions) error {
	g, err := s.enter(keys[0])
	if err != nil {
		return err
	}
	defer g.RUnlock()
	defer s.lockOwner(opts.Owner).Unlock()
	if err := s.check(ctx, acl.OpWrite, opts.Owner, op, keys[0]); err != nil {
		return err
	}
	p, now, deadline, err := s.writeTerms(ctx, op, keys[0], opts)
	if err != nil {
		return err
	}
	if err := s.install(opts.Owner, keys, vals, &store.Record{Policy: p, Created: createdNS(now)}, deadline); err != nil {
		return err
	}
	r := audit.Record{
		Actor: ctx.Actor, Op: op, Key: keys[0], Owner: opts.Owner,
		Purpose: ctx.Purpose, Outcome: audit.OutcomeOK,
	}
	if op == "MPUT" {
		r.Detail = fmt.Sprintf("batch=%d", len(keys))
	}
	s.auditOp(r)
	return nil
}

// install is the one way a compliant record enters the engine: keys and
// vals, which share rec and deadline, are sealed under owner's key when
// envelope encryption is on, rec is stamped with that key's epoch (0:
// stored in the clear), and one SetRecorded installs them, journaling one
// GREC per touched engine shard, atomically per shard. Each value is sealed
// with its key as the associated data, both in one buffer for the call (the
// engine clones what it stores); the sealed values overwrite vals. Callers
// hold owner's stripe and have refused an erased owner.
func (s *Store) install(owner string, keys []string, vals [][]byte, rec *store.Record, deadline time.Time) error {
	var epoch uint64
	if s.keyring != nil && owner != "" {
		c, e, err := s.sealerFor(owner)
		if err != nil {
			return err
		}
		epoch = e
		size := 0
		for i, v := range vals {
			size += len(keys[i]) + len(v) + cryptoutil.SealOverhead
		}
		buf := make([]byte, 0, size)
		for i, v := range vals {
			k := len(buf) + len(keys[i])
			buf = append(buf, keys[i]...)
			if vals[i], err = c.Seal(buf[k:], v, buf[k-len(keys[i]):k]); err != nil {
				return err
			}
			buf = buf[:k+len(vals[i])]
		}
	}
	rec.Epoch = epoch
	return s.db.SetRecorded(keys, vals, rec, deadline, opRecord, encodeMetadata(rec, deadline))
}

// sealerFor returns the prepared cipher for a write to owner's records and
// the key epoch to stamp them with, from one keyring read (the keyring keeps
// a hot owner's cipher prepared). A key created by this call is written to
// its slot in the key file and sent to replicas on the stream, never to the
// AOF. Callers hold owner's stripe and have refused an erased owner, so no
// Forget can destroy the key between this read and the seal, and no key is
// made for an erased owner.
func (s *Store) sealerFor(owner string) (cryptoutil.Cipher, uint64, error) {
	if len(owner) > aof.MaxKeyOwner {
		return cryptoutil.Cipher{}, 0, fmt.Errorf("%w: %d bytes, a key slot holds %d", ErrOwnerTooLong, len(owner), aof.MaxKeyOwner)
	}
	c, epoch, wrapped, err := s.keyring.SealerFor(owner)
	if err != nil {
		return cryptoutil.Cipher{}, 0, err
	}
	if wrapped != nil {
		if err := s.keepKey(owner, epoch, wrapped); err != nil {
			return cryptoutil.Cipher{}, 0, err
		}
		if h := s.streamJ.Load(); h != nil {
			_ = h.AppendOp(opKey, []byte(owner), wrapped, epochArg(epoch))
		}
	}
	return c, epoch, nil
}

// keepKey writes owner's key to its slot in the key file, if there is one.
func (s *Store) keepKey(owner string, epoch uint64, wrapped []byte) error {
	if s.keys == nil {
		return nil
	}
	return s.keys.Put(owner, epoch, wrapped)
}

// dropKey zeroes owner's slot in the key file once the erased owner record
// is journaled: durable before the erasure is acknowledged under real-time
// timing, with the AOF's next fsync (and the owner record) under eventual
// timing. Whichever of the two reaches the disk first, Open mends what a
// crash leaves: a replayed erased owner record zeroes a slot, and an owner
// whose slot is zeroed with no erasure journaled is erased (keylessOwners).
func (s *Store) dropKey(owner string) error {
	if s.keys == nil {
		return nil
	}
	if err := s.keys.Zero(owner); err != nil || s.cfg.Timing != TimingRealTime {
		return err
	}
	return s.keys.Sync()
}

// ownerCipher is what a read needs from the keyring to serve one owner's
// records: the prepared cipher and the key epoch it belongs to, from one
// locked read. It is never kept beyond the call it was read for: only the
// keyring, which drops it on Shred, may hold the expanded key longer.
type ownerCipher struct {
	owner string
	// sealed is false when the owner's records are stored in the clear (no
	// envelope encryption, or no owner); none of them is ever crypto-erased.
	sealed bool
	epoch  uint64
	// keyed is false when the owner is erased (or never had a key): nothing
	// sealed for the owner can be opened, and c is not usable.
	keyed bool
	c     cryptoutil.Cipher
	// objections are the owner's standing objections, read beside the
	// cipher by a purpose check (getLocked) and nil elsewhere.
	objections []string
}

func (s *Store) ownerCipherFor(owner string) ownerCipher {
	oc := ownerCipher{owner: owner}
	if s.keyring != nil && owner != "" {
		oc.sealed = true
		oc.c, oc.epoch, oc.keyed = s.keyring.CipherFor(owner)
	}
	return oc
}

// live reports whether rec's value is readable: stored in the clear, or
// sealed under the epoch of the key oc holds. Anything else is
// crypto-erased and merely awaits the sweep.
func (oc *ownerCipher) live(rec *store.Record) bool {
	return !oc.sealed || (oc.keyed && rec.Epoch == oc.epoch)
}

// Get reads the value at key, enforcing purpose limitation and access
// control, and auditing the read when the configuration demands it. The
// enforcement body is getLocked, shared with GetBatch.
func (s *Store) Get(ctx Ctx, key string) ([]byte, error) {
	if !s.cfg.Compliant {
		v, ok := s.db.Get(key)
		if !ok {
			return nil, ErrNotFound
		}
		return v, nil
	}
	g, err := s.enter(key)
	if err != nil {
		return nil, err
	}
	defer g.RUnlock()
	var oc ownerCipher
	v, owner, err := s.getLocked(ctx, key, &oc)
	if err != nil {
		if errors.Is(err, ErrNotFound) && s.cfg.auditReads {
			s.auditOp(audit.Record{
				Actor: ctx.Actor, Op: "GET", Key: key, Owner: owner,
				Purpose: ctx.Purpose, Outcome: audit.OutcomeMissing,
			})
		}
		return nil, err
	}
	if s.cfg.auditReads {
		s.auditOp(audit.Record{
			Actor: ctx.Actor, Op: "GET", Key: key, Owner: owner,
			Purpose: ctx.Purpose, Outcome: audit.OutcomeOK,
		})
	}
	return v, nil
}

// Delete removes key. Under real-time timing the AOF is compacted before
// returning, so the deleted data does not persist in the log (§4.3).
func (s *Store) Delete(ctx Ctx, key string) error {
	if !s.cfg.Compliant {
		if s.db.Del(key) == 0 {
			return ErrNotFound
		}
		return nil
	}
	if err := s.deleteKey(ctx, key); err != nil {
		return err
	}
	s.pendingRewrite.Store(true)
	if s.cfg.Timing == TimingRealTime {
		// The compaction is whole-store work: it takes the global locks
		// itself, after the call has left its gate stripe. Unlike Forget,
		// a single-key delete compacts only the AOF (the pre-stripe
		// behavior); backup refresh and replica drains stay with the
		// owner-wide erasure path and Maintain.
		s.lockAll()
		defer s.unlockAll()
		if s.closed.Load() {
			// Close won the race to the global locks; the delete itself
			// succeeded, and the owed compaction stays in pendingRewrite.
			return nil
		}
		return s.rewriteLocked(ctx)
	}
	return nil
}

// deleteKey is Delete's gated half: the key is deleted only if it still
// holds the record whose owner was checked, else checked afresh.
func (s *Store) deleteKey(ctx Ctx, key string) error {
	g, err := s.enter(key)
	if err != nil {
		return err
	}
	defer g.RUnlock()
	for {
		e, ok := s.entryOf(key)
		owner := ownerOf(e.Record)
		if err := s.check(ctx, acl.OpWrite, owner, "DEL", key); err != nil {
			return err
		}
		if ok && !s.db.DeleteIf(key, e.Record) {
			continue
		}
		rec := audit.Record{Actor: ctx.Actor, Op: "DEL", Key: key, Owner: owner, Purpose: ctx.Purpose, Outcome: audit.OutcomeOK}
		if !ok {
			rec.Outcome, err = audit.OutcomeMissing, ErrNotFound
		}
		s.auditOp(rec)
		return err
	}
}

// entryOf is key's entry as the compliance checks of an operation on key
// read it: judged at the clock's now, without a READ record, and handed to
// the journal (a lazy reap) before it is returned.
func (s *Store) entryOf(key string) (store.Entry, bool) {
	e, ok := s.db.Peek(key, s.cfg.Config.Clock.Now())
	s.db.Flush()
	return e, ok
}

// Metadata returns the GDPR metadata for key, with its owner's standing
// objections.
func (s *Store) Metadata(ctx Ctx, key string) (Metadata, error) {
	if !s.cfg.Compliant {
		return Metadata{}, ErrNotCompliant
	}
	g, err := s.enter(key)
	if err != nil {
		return Metadata{}, err
	}
	defer g.RUnlock()
	e, _ := s.entryOf(key)
	if e.Record == nil || s.recordDead(e.Record) {
		return Metadata{}, ErrNotFound
	}
	owner := e.Record.Policy.Owner
	if err := s.check(ctx, acl.OpRead, owner, "GETMETA", key); err != nil {
		return Metadata{}, err
	}
	m := metadataOf(e.Record, e.Deadline)
	m.Objections = s.Objections(owner)
	return m.clone(), nil
}

// TTL returns the remaining retention time for key.
func (s *Store) TTL(key string) (time.Duration, store.TTLStatus) {
	return s.db.TTL(key)
}

// Expire updates the retention deadline for key (controller operation).
func (s *Store) Expire(ctx Ctx, key string, ttl time.Duration) error {
	if !s.cfg.Compliant {
		if !s.db.Expire(key, ttl) {
			return ErrNotFound
		}
		return nil
	}
	g, err := s.enter(key)
	if err != nil {
		return err
	}
	defer g.RUnlock()
	for {
		e, ok := s.entryOf(key)
		owner := ownerOf(e.Record)
		if err := s.check(ctx, acl.OpWrite, owner, "EXPIRE", key); err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		// The record is unchanged: the deadline lives only in the engine
		// entry, and the EXPIREAT the engine journals is the whole change.
		deadline := canonicalTime(s.cfg.Config.Clock.Now().Add(ttl))
		if done, err := s.db.ExpireAtIf(key, e.Record, deadline); err != nil {
			return err
		} else if done {
			s.auditOp(audit.Record{
				Actor: ctx.Actor, Op: "EXPIRE", Key: key, Owner: owner,
				Purpose: ctx.Purpose, Outcome: audit.OutcomeOK,
			})
			return nil
		}
	}
}

// FlushAll removes every key with its compliance record, owner records and
// their standing objections included, as one atomic cut: the engine journals
// a single FLUSHALL record (replicas and AOF replay observe the same reset
// via applyRecord), and drops each record and its index entries. An erased
// subject's owner record stays (erasedOwnerRecord): an erasure is never
// undone.
func (s *Store) FlushAll() { s.db.FlushAll() }

// Exists reports whether key is present and unexpired.
func (s *Store) Exists(key string) bool { return s.db.Exists(key) }

// Len returns the number of live keys a client can list: the engine's, less
// the owner records that hold standing objections or an erasure (DESIGN.md
// §5.2).
func (s *Store) Len() int { return max(s.db.Len()-int(s.ix.ownerRecords.Load()), 0) }

// ACL exposes the access-control list for principal and grant management.
func (s *Store) ACL() *acl.List { return s.acl }

// Trail exposes the audit trail (nil when auditing is disabled).
func (s *Store) Trail() *audit.Trail { return s.trail }

// Engine exposes the underlying storage engine to the raw Redis commands
// and to tests; active expiry goes through ExpiryCycle, which audits it.
func (s *Store) Engine() *store.DB { return s.db }

// Log exposes the AOF (nil when persistence is disabled).
func (s *Store) Log() *aof.Log { return s.log }

// Config returns the store's (normalized-inputs) configuration.
func (s *Store) Config() Config { return s.cfg.Config }

// ExpiryCycle runs one active-expiry cycle and audits a summary record.
// GDPR deletion work is itself a processing activity worth evidencing.
func (s *Store) ExpiryCycle() store.CycleStats {
	st := s.db.ActiveExpireCycle()
	if st.Expired > 0 {
		s.auditOp(audit.Record{
			Actor: "system:expiry", Op: "EXPIRECYCLE",
			Outcome: audit.OutcomeOK,
			Detail:  fmt.Sprintf("reclaimed=%d sampled=%d loops=%d", st.Expired, st.Sampled, st.Loops),
		})
	}
	return st
}

// Close flushes and releases every subsystem. closed is flipped first so
// new calls bounce at the gate; the lockAll barrier then waits out the calls
// already through it, after which no call can reach the log or trail.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.lockAll()
	hub := s.hub
	s.unlockAll()
	s.StopExpirer()
	if hub != nil {
		hub.Close()
	}
	var first error
	if s.log != nil {
		if err := s.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.keys != nil {
		if err := s.keys.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.trail != nil {
		if err := s.trail.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
