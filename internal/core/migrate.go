package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/store"
)

// Slot migration moves keys between cluster nodes while both stay live, a
// whole subject at a time (DESIGN.md §15). The compliance layer's half of
// the protocol is four primitives:
//
//   - SubjectKeys lists the data this node holds of one subject, and Erased
//     whether it holds the subject's erasure instead.
//   - DumpForMigration extracts one key as the journal record an
//     envelope-off store writes for it: GREC with the metadata verbatim and
//     the value decrypted (each node seals under its own keyring, so
//     ciphertext cannot travel), or the engine's SET/SETEX for a key
//     without metadata, its retention deadline absolute. An owner record
//     dumps as the GREC that journals it. Records that are crypto-erased
//     but unswept are NOT dumped — migration must never resurrect data a
//     subject asked to be forgotten.
//   - RestoreRecord ingests such a record on the destination through the
//     full compliance path: re-sealed under the destination's keyring (at
//     the epoch of the destination's key for the owner; an owner erased
//     there refuses it with ERASED instead of resurrecting), re-indexed,
//     journaled, and audited, with metadata (Created, Origin, Expiry)
//     preserved, under the destination's standing objections. An owner
//     record replaces the destination's, keeping a later erasure.
//   - RemoveMigrated deletes the source copy after the destination has
//     acknowledged it, journaling the engine DEL so the source's replicas
//     follow.
//
// The server drives these per subject under CLUSTER MIGRATESLOT and writes
// one aggregate audit record per slot on the source (AuditMigration); the
// destination audits each RESTOREKEY — arrival of personal data on a new
// node is a processing event in its own right.

// AuthorizeMigration checks that the acting principal may drive slot
// migration (an admin operation), auditing a denial.
func (s *Store) AuthorizeMigration(ctx Ctx) error {
	if !s.cfg.Compliant {
		return nil
	}
	return s.check(ctx, acl.OpAdmin, "", "MIGRATESLOT", "")
}

// DumpForMigration extracts key as a migration record: the argv, name
// first, that an envelope-off store journals for it (emitRecord). ok is
// false when the key does not exist, is crypto-erased awaiting the sweep,
// or belongs to an owner shredded since — none of which migrate. raw is
// the engine's stored bytes at dump time, lent, and so is the value of a
// record stored in the clear: read them, never write to them. The caller
// hands raw back to RemoveMigrated so a write that lands between dump and
// removal is detected instead of lost.
func (s *Store) DumpForMigration(key string) (argv [][]byte, raw []byte, ok bool, err error) {
	g, err := s.gateOf(key)
	if err != nil {
		return nil, nil, false, err
	}
	defer g.RUnlock()
	e, exists := s.db.Lookup(key)
	if !exists {
		return nil, nil, false, nil
	}
	v := e.Value
	if r := e.Record; r != nil {
		oc := s.ownerCipherFor(r.Policy.Owner)
		if !oc.live(r) {
			return nil, nil, false, nil
		}
		if oc.sealed {
			if v, err = oc.c.Open(nil, v, []byte(key)); err != nil {
				return nil, nil, false, err
			}
		}
	}
	var mb []byte
	err = emitRecord(func(name string, args ...[]byte) error {
		argv = append([][]byte{[]byte(name)}, args...)
		return nil
	}, key, e, v, &mb)
	return argv, e.Value, err == nil, err
}

// RestoreRecord ingests a migration record, argv as DumpForMigration
// returns it: the destination half of a slot transfer. admit, when not
// nil, is asked about the record's key and owner ("" for none) after the
// record parses and before anything is written; its error refuses the
// record. A record in an earlier release's one-argument form is refused
// with ErrRetiredFormat.
//
// A GREC goes through the full compliance path — installed as a write is
// (install): sealed under this node's keyring at the epoch of the owner's
// key, re-indexed, journaled as one GREC record — and audited, with the
// source's metadata (Created, Origin, Expiry, ...) preserved verbatim; it
// reads its owner's objections from this node's owner record, as every
// record does. A GREC that lists objections for an ordinary key is an
// earlier release's and is refused with ErrRetiredFormat. An owner record's
// GREC (no owner, only objections and an erasure) replaces this node's
// owner record for the subject its key names, withdrawals included, so
// restoring it is always a rights operation; no other record may name that
// key. The erasure it carries is kept as setOwner keeps one. A record whose
// owner is erased here, owner record included, fails with ErrErased, unless
// it is itself an erased owner record: nothing erased here is resurrected.
// A record already past its retention deadline is dropped silently —
// migrating it would resurrect overdue data.
func (s *Store) RestoreRecord(ctx Ctx, argv [][]byte, admit func(key, owner string) error) error {
	var (
		meta       *Metadata
		key, value []byte
		deadline   time.Time
	)
	name := ""
	if len(argv) > 0 {
		name = string(argv[0])
	}
	switch {
	case len(argv) == 1:
		return fmt.Errorf("core: migration record: %w: one-argument form; upgrade the source node first", ErrRetiredFormat)
	case name == opRecord && len(argv) == 4:
		m, err := decodeMetadata(argv[1])
		if err != nil {
			return fmt.Errorf("core: migration record: %w", err)
		}
		if err := recordObjections(&m, argv[2]); err != nil {
			return fmt.Errorf("core: migration record: %w; upgrade the source node first", err)
		}
		meta, key, value, deadline = &m, argv[2], argv[3], canonicalTime(m.Expiry)
	case name == "SET" && len(argv) == 3:
		key, value = argv[1], argv[2]
	case name == "SETEX" && len(argv) == 4:
		d, err := store.DecodeDeadline(argv[2])
		if err != nil {
			return fmt.Errorf("core: migration record: %w", err)
		}
		key, deadline, value = argv[1], d, argv[3]
	default:
		return fmt.Errorf("core: not a migration record: %q with %d arguments", name, len(argv)-1)
	}
	k := string(key)
	if k == "" {
		return errors.New("core: migration record without key")
	}
	owner, reserved := ReservedKey(k)
	switch {
	case reserved && (meta == nil || meta.Owner != "" || !s.cfg.Compliant):
		return ErrReservedKey
	case !reserved && meta != nil:
		owner = meta.Owner
	}
	if admit != nil {
		if err := admit(k, owner); err != nil {
			return err
		}
	}
	g, err := s.gateOf(k)
	if err != nil {
		return err
	}
	defer g.RUnlock()
	if meta == nil || !s.cfg.Compliant {
		s.restoreRaw(k, value, deadline)
		return nil
	}
	defer s.lockOwner(owner).Unlock()
	// An owner record sets the subject's standing objections, withdrawals
	// included, as UNOBJECT does.
	op := acl.OpWrite
	if reserved {
		op = acl.OpRights
	}
	if err := s.check(ctx, op, owner, "RESTOREKEY", k); err != nil {
		return err
	}
	// An owner erased here takes nothing of its subject but another
	// erasure, so a subject whose records are refused with ErrErased stays
	// whole on the source.
	if s.Erased(owner) && (!reserved || meta.KeyEpoch == 0) {
		return fmt.Errorf("%w: %s", ErrErased, owner)
	}
	if reserved {
		slices.Sort(meta.Objections)
		if err := s.setOwner(owner, slices.Compact(meta.Objections), meta.KeyEpoch, true); err != nil {
			return err
		}
		s.auditOp(audit.Record{
			Actor: ctx.Actor, Op: "RESTOREKEY", Owner: owner, Purpose: ctx.Purpose,
			Outcome: audit.OutcomeOK, Detail: "migrated-in owner record",
		})
		return nil
	}
	if !deadline.IsZero() && !deadline.After(s.cfg.Config.Clock.Now()) {
		return nil
	}
	if err := s.install(owner, []string{k}, [][]byte{value}, s.recordOf(meta), deadline); err != nil {
		return err
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "RESTOREKEY", Key: k, Owner: meta.Owner,
		Purpose: ctx.Purpose, Outcome: audit.OutcomeOK, Detail: "migrated-in",
	})
	return nil
}

// restoreRaw ingests a record without metadata straight into the engine,
// under its absolute deadline (zero: none).
func (s *Store) restoreRaw(key string, value []byte, deadline time.Time) {
	switch {
	case deadline.IsZero():
		s.db.Set(key, value)
	case deadline.After(s.cfg.Config.Clock.Now()):
		s.db.SetAt(key, value, deadline)
	}
}

// RemoveMigrated deletes the source copy of a key the destination has
// acknowledged — but only if the engine still holds the exact bytes
// dumped (expect). changed reports a write that landed between dump and
// here: the caller must re-dump and re-send instead of deleting the newer
// value. Sealing is nonce-randomized, so any compliant re-write changes
// the stored bytes and is detected. The engine DEL is journaled as usual,
// so the source's replicas and AOF converge; there is no per-key audit
// record — the slot's aggregate AuditMigration entry is the evidence.
func (s *Store) RemoveMigrated(key string, expect []byte) (removed, changed bool) {
	g, err := s.gateOf(key)
	if err != nil {
		return false, false
	}
	defer g.RUnlock()
	// A key already gone (erased or expired meanwhile) has nothing to
	// remove; the compare and the delete are one step under the shard lock.
	removed, live := s.db.DeleteIfValue(key, expect)
	return removed, live && !removed
}

// SubjectKeys lists the data this node holds of owner's subject, which a
// slot migration moves as one: the owner record's key, if there is one and
// it holds no erasure, then the keys of the owner's live records, at most max
// of them all (negative: no bound). Crypto-erased records awaiting the sweep
// are not held: they never migrate. An erased subject holds no data here:
// Erased reports its owner record, which a migration carries alone.
func (s *Store) SubjectKeys(owner string, max int) []string {
	var keys []string
	if rec := s.ownerRecord(owner); rec != nil && rec.Epoch == 0 {
		keys = append(keys, OwnerKey(owner))
	}
	if max >= 0 && len(keys) >= max {
		return keys
	}
	s.walkOwner(owner, func(k string, e store.Entry) bool {
		if !s.recordDead(e.Record) {
			keys = append(keys, k)
		}
		return max < 0 || len(keys) < max
	})
	return keys
}

// AuditMigration writes the aggregate audit record for one slot
// migration on the source node.
func (s *Store) AuditMigration(ctx Ctx, detail string, ok bool) {
	outcome := audit.OutcomeOK
	if !ok {
		outcome = audit.OutcomeError
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "MIGRATESLOT", Purpose: ctx.Purpose,
		Outcome: outcome, Detail: detail,
	})
}
