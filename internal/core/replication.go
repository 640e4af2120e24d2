package core

import (
	"errors"
	"fmt"

	"gdprstore/internal/audit"
	"gdprstore/internal/backup"
	"gdprstore/internal/replica"
	"gdprstore/internal/store"
)

// rechainJournal rebuilds the engine's journal chain from the attached
// legs: the AOF, then the network replication hub. Callers hold gmu.
func (s *Store) rechainJournal() {
	var legs []store.Journal
	if s.log != nil {
		legs = append(legs, store.JournalFunc(s.log.Append))
	}
	if h := s.hub.Load(); h != nil {
		legs = append(legs, h)
	}
	s.db.SetJournal(store.NewMultiJournal(legs...))
}

// EnableStreamReplication attaches (or returns the already attached)
// network replication hub: from this call on, every engine mutation and
// every compliance control record is RESP-encoded into the hub's stream,
// ready for replicas to PSYNC. Enabled lazily — a server that never serves
// a replica keeps the engine's no-journal fast path (when it also has no
// AOF). Idempotent.
func (s *Store) EnableStreamReplication() (*replica.Hub, error) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if h := s.hub.Load(); h != nil {
		return h, nil
	}
	h := replica.NewHub()
	s.hub.Store(h)
	s.rechainJournal()
	s.auditOp(audit.Record{
		Actor: "system:replication", Op: "ENABLESTREAM", Outcome: audit.OutcomeOK,
	})
	return h, nil
}

// Hub returns the network replication hub, or nil if stream replication
// has not been enabled.
func (s *Store) Hub() *replica.Hub {
	return s.hub.Load()
}

// StreamSnapshot implements replica.SnapshotProvider over the full
// compliance state: it quiesces the whole store, invokes cut() at the
// consistent point (where the hub registers the new link), then emits a
// FLUSHALL followed by the complete record sequence — dataset, metadata,
// owner records with their objections and erasures, then every live key
// wrapped (GKEY) — in the AOF record format. A replica that applies the
// payload and then tails the stream from the cut offset converges on the
// primary's state, including everything Article 17 has erased (the
// snapshot is generated from post-erasure state, so erased data never
// crosses the wire, and an erased owner record destroys a key the replica
// kept from before). Its key half is the one place a wrapped key is
// emitted: a replica has no other way to its keys, and a compaction
// writes none.
func (s *Store) StreamSnapshot(emit func(name string, args ...[]byte) error, cut func()) error {
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return ErrClosed
	}
	if cut != nil {
		cut()
	}
	if err := emit("FLUSHALL"); err != nil {
		return err
	}
	if err := s.snapshotRecords(emit); err != nil || s.keyring == nil {
		return err
	}
	wrapped, err := s.keyring.ExportAll()
	if err != nil {
		return err
	}
	for owner, w := range wrapped {
		epoch, _ := s.keyring.KeyEpoch(owner)
		if err := emit(opKey, []byte(owner), w, epochArg(epoch)); err != nil {
			return err
		}
	}
	return nil
}

// SetBackupManager registers a backup manager whose generations the store
// keeps consistent with erasure: real-time Forget refreshes the backups
// synchronously; eventual timing defers the refresh to Maintain.
func (s *Store) SetBackupManager(m *backup.Manager) {
	s.gmu.Lock()
	s.backups = m
	s.gmu.Unlock()
}

var errNoBackups = errors.New("core: no backup manager registered")

// Backup writes a new backup generation now: snapshotRecords under the
// whole-store lock, every record with its metadata and no key.
func (s *Store) Backup() (string, error) {
	s.lockAll()
	defer s.unlockAll()
	if s.backups == nil {
		return "", errNoBackups
	}
	path, err := s.backups.Create(s.snapshotRecords)
	if err != nil {
		return "", err
	}
	s.auditOp(audit.Record{
		Actor: "system:backup", Op: "BACKUP", Outcome: audit.OutcomeOK, Detail: path,
	})
	return path, nil
}

// propagateErasure completes an Article 17 erasure across the subsystems
// beyond the main engine: the AOF (compaction) and the backups (refresh
// generations). Networked replicas need nothing here: the erasure's records
// are already in the hub's stream, and each replica applies them as it
// catches up. It is whole-store work:
// the caller must hold no stripe locks, because it acquires them all. In
// eventual timing the work is deferred to Maintain via pendingRewrite.
func (s *Store) propagateErasure(ctx Ctx) error {
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		// Close won the race to the global locks; the erasure's data-path
		// work is done, and the owed compaction stays in pendingRewrite.
		return nil
	}
	return s.propagateErasureLocked(ctx)
}

// propagateErasureLocked is propagateErasure's body; callers hold the
// whole-store lock (lockAll).
func (s *Store) propagateErasureLocked(ctx Ctx) error {
	if err := s.rewriteLocked(ctx); err != nil {
		return err
	}
	if s.backups != nil {
		if _, removed, err := s.backups.Refresh(s.snapshotRecords); err != nil {
			return fmt.Errorf("core: backup refresh: %w", err)
		} else if removed > 0 {
			s.auditOp(audit.Record{
				Actor: ctx.Actor, Op: "BACKUPREFRESH", Outcome: audit.OutcomeOK,
				Detail: fmt.Sprintf("purged=%d", removed),
			})
		}
	}
	return nil
}
