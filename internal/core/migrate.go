package core

import (
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
)

// Slot migration moves keys between cluster nodes while both stay live.
// The compliance layer's half of the protocol is three primitives:
//
//   - DumpForMigration extracts one key as a portable record: the value
//     decrypted (each node seals under its own keyring, so ciphertext
//     cannot travel), the metadata verbatim, the retention deadline
//     absolute. Records that are crypto-erased but unswept are NOT
//     dumped — migration must never resurrect data a subject asked to be
//     forgotten.
//   - RestoreRecord ingests such a record on the destination through the
//     full compliance path: re-sealed under the destination's keyring (at
//     the destination's current key epoch for the owner, so a FORGETUSER
//     that already reached the destination wins — restore then fails with
//     ERASED instead of resurrecting), re-indexed, journaled, and audited,
//     with metadata (Created, Origin, Objections, Expiry) preserved.
//   - RemoveMigrated deletes the source copy after the destination has
//     acknowledged it, journaling the engine DEL so the source's replicas
//     follow.
//
// The server drives these per key under CLUSTER MIGRATESLOT and writes one
// aggregate audit record per slot on the source (AuditMigration); the
// destination audits each RESTOREKEY — arrival of personal data on a new
// node is a processing event in its own right.

// MigrationRecord is one key's portable form for slot migration. Meta is
// nil for records written without compliance metadata (baseline stores or
// raw SETs); those carry their absolute retention deadline, if any, in
// ExpireAtMs instead. On the wire it is the record codec's binary form
// (codec.go).
type MigrationRecord struct {
	Key        string
	Value      []byte
	Meta       *Metadata
	ExpireAtMs int64
}

// AuthorizeMigration checks that the acting principal may drive slot
// migration (an admin operation), auditing a denial.
func (s *Store) AuthorizeMigration(ctx Ctx) error {
	if !s.cfg.Compliant {
		return nil
	}
	return s.check(ctx, acl.OpAdmin, "", "MIGRATESLOT", "")
}

// DumpForMigration extracts key as a portable migration record. ok is
// false when the key does not exist, is crypto-erased awaiting the sweep,
// or belongs to an owner shredded since — none of which migrate. raw is
// the engine's stored bytes at dump time, lent, and so is the Value of a
// record stored in the clear: read them, never write to them. The caller
// hands raw back to RemoveMigrated so a write that lands between dump and
// removal is detected instead of lost.
func (s *Store) DumpForMigration(key string) (rec MigrationRecord, raw []byte, ok bool, err error) {
	g, err := s.enter(key)
	if err != nil {
		return rec, nil, false, err
	}
	defer g.RUnlock()
	e, exists := s.db.Lookup(key)
	if !exists {
		return rec, nil, false, nil
	}
	raw = e.Value
	if r := e.Record; r != nil {
		oc := s.ownerCipherFor(r.Policy.Owner)
		if !oc.live(r) {
			return rec, nil, false, nil
		}
		v := e.Value
		if oc.sealed {
			if v, err = oc.c.Open(nil, v, []byte(key)); err != nil {
				return rec, nil, false, err
			}
		}
		m := metadataOf(r, e.Deadline).clone()
		return MigrationRecord{Key: key, Value: v, Meta: &m}, raw, true, nil
	}
	rec = MigrationRecord{Key: key, Value: e.Value}
	if !e.Deadline.IsZero() {
		rec.ExpireAtMs = e.Deadline.UnixMilli()
	}
	return rec, raw, true, nil
}

// RestoreRecord ingests a migration record: the destination half of a slot
// transfer. Metadata-bearing records go through the full compliance path —
// sealed under this node's keyring at the owner's current epoch,
// re-indexed, journaled as one GREC record, audited — with the source's metadata
// (Created, Origin, Objections, Expiry, ...) preserved verbatim. A record
// whose owner is crypto-shredded here fails with ErrErased: an erasure
// that raced ahead of the migration wins. A record already past its
// retention deadline is dropped silently — migrating it would resurrect
// overdue data.
func (s *Store) RestoreRecord(ctx Ctx, rec MigrationRecord) error {
	g, err := s.enter(rec.Key)
	if err != nil {
		return err
	}
	defer g.RUnlock()
	if rec.Meta == nil || !s.cfg.Compliant {
		return s.restoreRaw(rec)
	}
	meta := rec.Meta
	os := s.ownerStripeFor(meta.Owner)
	os.mu.Lock()
	defer os.mu.Unlock()
	if err := s.check(ctx, acl.OpWrite, meta.Owner, "RESTOREKEY", rec.Key); err != nil {
		return err
	}
	stored := rec.Value
	var epoch uint64
	if s.keyring != nil && meta.Owner != "" {
		c, e, err := s.sealerFor(meta.Owner)
		if err != nil {
			return err
		}
		epoch = e
		if stored, err = c.Seal(nil, rec.Value, []byte(rec.Key)); err != nil {
			return err
		}
	}
	expiry := canonicalTime(meta.Expiry)
	if !expiry.IsZero() && !expiry.After(s.cfg.Config.Clock.Now()) {
		return nil
	}
	r := s.recordOf(meta)
	r.Epoch = epoch
	if err := s.db.SetRecorded([]string{rec.Key}, [][]byte{stored}, r, expiry, opRecord, encodeMetadata(r, expiry)); err != nil {
		return err
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "RESTOREKEY", Key: rec.Key, Owner: meta.Owner,
		Purpose: ctx.Purpose, Outcome: audit.OutcomeOK, Detail: "migrated-in",
	})
	return nil
}

// restoreRaw ingests a metadata-less record straight into the engine.
func (s *Store) restoreRaw(rec MigrationRecord) error {
	if rec.ExpireAtMs > 0 {
		ttl := time.UnixMilli(rec.ExpireAtMs).Sub(s.cfg.Config.Clock.Now())
		if ttl <= 0 {
			return nil
		}
		s.db.SetEX(rec.Key, rec.Value, ttl)
	} else {
		s.db.Set(rec.Key, rec.Value)
	}
	return nil
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
	g, err := s.enter(key)
	if err != nil {
		return false, false
	}
	defer g.RUnlock()
	// A key already gone (erased or expired meanwhile) has nothing to
	// remove; the compare and the delete are one step under the shard lock.
	removed, live := s.db.DeleteIfValue(key, expect)
	return removed, live && !removed
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
