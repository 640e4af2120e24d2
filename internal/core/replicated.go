package core

import (
	"errors"
	"fmt"

	"gdprstore/internal/audit"
)

// This file is the record-apply surface shared by the two consumers of the
// journal stream: AOF replay at Open (single-threaded, before the store is
// shared) and the live network replication link (one applier goroutine,
// concurrent with local reads). Both must interpret every record type the
// primary can emit — the engine's data-plane records (SET/SETEX/DEL/...)
// and the compliance layer's own (GREC/GMETA/GFORGET/...) — identically, or
// a replica's state would drift from what a primary restart reconstructs.
// They take what today's writers emit, and the previous release's erasure
// mark (GSHRED), which they fold into the owner record; an earlier form,
// the GOBJ/GUNOBJ objection deltas included, is refused (ErrRetiredFormat).

// opShred is the previous release's erasure mark, GSHRED owner epoch: the
// owner's key destroyed and its epoch advanced to epoch. No writer emits it;
// replay, the stream and a restore fold it into the owner record.
const opShred = "GSHRED"

// applyRecord applies one journal record without re-journaling it. It is
// safe for a single applier goroutine running concurrently with readers:
// a record is installed with its value under the engine's shard lock, an
// owner record restamps through the conditional operations, and the indexes
// follow the engine; it takes no stripe (a restore holds them all). A written
// record goes through the owner's shared policy, as a live write does, so a
// replayed store shares policies as the live one did.
func (s *Store) applyRecord(name string, args [][]byte) error {
	switch name {
	case opRecord:
		if len(args) < 3 || len(args)%2 != 1 {
			return errors.New("core: replay GREC: need metadata and key/value pairs")
		}
		m, err := decodeMetadata(args[0])
		if err != nil {
			return fmt.Errorf("core: replay GREC: %w", err)
		}
		if owner, ok := ReservedKey(string(args[1])); ok { // written alone
			return s.setOwner(owner, m.Objections, m.KeyEpoch, nil)
		}
		rec := s.recordOf(&m)
		for i := 1; i < len(args); i += 2 {
			s.db.Restore(string(args[i]), args[i+1], rec, m.Expiry)
		}
		return nil
	case opMeta:
		if len(args) != 2 {
			return errors.New("core: replay GMETA: need 2 args")
		}
		m, err := decodeMetadata(args[1])
		if err != nil {
			return fmt.Errorf("core: replay GMETA: %w", err)
		}
		// The metadata of a key the engine holds; its deadline is the
		// engine's, set by the record this one follows.
		s.db.SetRecord(string(args[0]), s.recordOf(&m))
		return nil
	case "GMETAB", "GOBJ", "GUNOBJ", "GREINST": // batch metadata; objection deltas; a reinstatement
		return fmt.Errorf("%w: %s", ErrRetiredFormat, name)
	case opKey:
		if len(args) != 3 {
			return errors.New("core: replay GKEY: need 3 args")
		}
		if s.keyring == nil {
			return nil // envelope disabled this run; ignore
		}
		// A key arrives on the stream only (replay refuses one). Pin the
		// key's epoch exactly, so the records' KeyEpoch stamps still match
		// their sealing key, and keep the key in the replica's own key file.
		// A newer key read from the key file outlives an older record of the
		// owner's key, and so does an erasure past it.
		epoch, err := parseEpoch(args[2])
		if err != nil {
			return fmt.Errorf("core: replay GKEY: %w", err)
		}
		owner := string(args[0])
		if e, ok := s.keyring.KeyEpoch(owner); (ok && e > epoch) || s.erasedAt(owner) > epoch {
			return nil
		}
		if err := s.keyring.ImportAt(owner, args[1], epoch); err != nil {
			return err
		}
		return s.keepKey(owner, epoch, args[1])
	case opShred:
		if len(args) == 1 {
			return fmt.Errorf("%w: GSHRED without an epoch", ErrRetiredFormat)
		}
		if len(args) != 2 {
			return errors.New("core: replay GSHRED: need 2 args")
		}
		if s.keyring == nil {
			return nil
		}
		epoch, err := parseEpoch(args[1])
		if err != nil {
			return fmt.Errorf("core: replay GSHRED: %w", err)
		}
		// Folded into the owner record, erased at epoch, as the erasure this
		// release writes. A key made at epoch or later (a reinstated owner's,
		// read from the key file) outlives the mark, which is then stale.
		owner := string(args[0])
		if e, ok := s.keyring.KeyEpoch(owner); ok && e >= epoch {
			return nil
		}
		return s.setOwner(owner, s.Objections(owner), epoch, nil)
	case opForget:
		if len(args) != 1 && len(args) != 2 {
			return errors.New("core: replay GFORGET: need 1 or 2 args")
		}
		// An eager-mode marker follows the erasure's DELs in the stream,
		// which took the owner's records with them. A crypto-shred one had
		// no DELs before it: the erased owner record before it made the
		// owner's records dead, and the sweep reclaims them, found by their
		// epoch stamps.
		owner := string(args[0])
		if len(args) == 2 && string(args[1]) == forgetModeShred && s.keyring != nil && s.ix.ownerKeyCount(owner) > 0 {
			s.markErasurePending(owner)
		}
		return nil
	default:
		return s.db.Apply(name, args)
	}
}

// ApplyReplicated implements replica.Applier: it applies one record
// received over a replication link, and audits the erasure-relevant
// control records so the replica's own audit trail evidences that Article
// 17 erasure reached this copy — the convergence auditors ask for.
func (s *Store) ApplyReplicated(name string, args [][]byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	err := s.applyRecord(name, args)
	if err != nil {
		return fmt.Errorf("core: apply replicated %s: %w", name, err)
	}
	switch name {
	case opForget:
		s.auditOp(audit.Record{
			Actor: "system:replication", Op: "FORGETUSER", Owner: string(args[0]),
			Outcome: audit.OutcomeOK, Detail: "erasure replicated from primary",
		})
	case "FLUSHALL":
		s.auditOp(audit.Record{
			Actor: "system:replication", Op: "FLUSHALL", Outcome: audit.OutcomeOK,
			Detail: "keyspace reset by replication stream",
		})
	}
	return nil
}
