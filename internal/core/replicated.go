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
// and the compliance layer's own (GREC/GFORGET) — identically, or a
// replica's state would drift from what a primary restart reconstructs.
// They take what today's writers emit and nothing else: an earlier form,
// record-level objections (GMETA, and a GREC that lists objections for an
// ordinary key), the GOBJ/GUNOBJ objection deltas and the GSHRED erasure
// mark included, is refused (ErrRetiredFormat).

// recordObjections refuses an earlier release's record-level copy of its
// owner's objections: a GREC for an ordinary key whose metadata lists them.
// Today's writers keep a subject's objections in its owner record alone.
func recordObjections(m *Metadata, key []byte) error {
	if len(m.Objections) == 0 {
		return nil
	}
	if _, owner := ReservedKey(string(key)); owner {
		return nil
	}
	return fmt.Errorf("%w: GREC of %q listing objections", ErrRetiredFormat, key)
}

// applyRecord applies one journal record without re-journaling it, and
// changes no key but the record's own. It is safe for a single applier
// goroutine running concurrently with readers: a record is installed with
// its value under the engine's shard lock, and the indexes follow the
// engine; it takes no stripe. A written record goes through the owner's
// shared policy, as a live write does, so a replayed store shares policies
// as the live one did.
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
			return s.setOwner(owner, m.Objections, m.KeyEpoch, false)
		}
		if err := recordObjections(&m, args[1]); err != nil {
			return err
		}
		rec := s.recordOf(&m)
		for i := 1; i < len(args); i += 2 {
			s.db.Restore(string(args[i]), args[i+1], rec, m.Expiry)
		}
		return nil
	case "GMETA", "GMETAB", "GOBJ", "GUNOBJ", "GREINST", "GSHRED": // record-level metadata; objection deltas; a reinstatement; an erasure mark
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
	case opForget:
		// A marker: the erased owner record before it queued the owner's
		// records for the sweep (setOwner), or, in eager mode, the DELs
		// before it took them.
		if len(args) != 1 && len(args) != 2 {
			return errors.New("core: replay GFORGET: need 1 or 2 args")
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
