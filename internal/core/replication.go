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
// legs: the AOF, the in-process replica fan-out, and the network
// replication hub, in that order. Callers hold gmu.
func (s *Store) rechainJournal() {
	var legs []store.Journal
	if s.log != nil {
		legs = append(legs, store.JournalFunc(s.log.Append))
	}
	if s.primary != nil {
		legs = append(legs, engineLeg{s.primary})
	}
	if s.hub != nil {
		legs = append(legs, s.hub)
	}
	s.db.SetJournal(store.NewMultiJournal(legs...))
}

// engineLeg feeds the in-process fan-out, whose replicas are bare engines
// that know no compliance record: a GREC reaches them as the SET/SETEX per
// pair it stands for.
type engineLeg struct{ p *replica.Primary }

// AppendOp implements store.Journal.
func (l engineLeg) AppendOp(name string, args ...[]byte) error {
	if name != opRecord {
		return l.p.AppendOp(name, args...)
	}
	m, err := decodeMetadata(args[0])
	if err != nil {
		return err
	}
	for i := 1; i+1 < len(args) && err == nil; i += 2 {
		if m.Expiry.IsZero() {
			err = l.p.AppendOp("SET", args[i], args[i+1])
		} else {
			err = l.p.AppendOp("SETEX", args[i], store.EncodeDeadline(m.Expiry), args[i+1])
		}
	}
	return err
}

// EnableReplication creates a journal fan-out in the given mode and chains
// it after the AOF, so every engine mutation — including expiry-generated
// deletions — streams to replicas. Call before attaching replicas.
func (s *Store) EnableReplication(mode replica.Mode) (*replica.Primary, error) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.primary != nil {
		return nil, errors.New("core: replication already enabled")
	}
	s.primary = replica.NewPrimary(mode, 0)
	s.rechainJournal()
	return s.primary, nil
}

// EnableStreamReplication attaches (or returns the already attached)
// network replication hub: from this call on, every engine mutation and
// every compliance control record is RESP-encoded into the hub's stream,
// ready for replicas to PSYNC. Enabled lazily — a server that never serves
// a replica keeps the engine's no-journal fast path (when it also has no
// AOF). Idempotent.
func (s *Store) EnableStreamReplication(opts replica.HubOptions) (*replica.Hub, error) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.hub != nil {
		return s.hub, nil
	}
	s.hub = replica.NewHub(opts)
	s.streamJ.Store(s.hub)
	s.rechainJournal()
	s.auditOp(audit.Record{
		Actor: "system:replication", Op: "ENABLESTREAM", Outcome: audit.OutcomeOK,
	})
	return s.hub, nil
}

// Hub returns the network replication hub, or nil if stream replication
// has not been enabled.
func (s *Store) Hub() *replica.Hub {
	return s.streamJ.Load()
}

// StreamSnapshot implements replica.SnapshotProvider over the full
// compliance state: it quiesces the whole store, invokes cut() at the
// consistent point (where the hub registers the new link), then emits a
// FLUSHALL followed by the complete record sequence — dataset, metadata,
// objections, keyring — in the AOF record format. A replica that applies
// the payload and then tails the stream from the cut offset converges on
// the primary's state, including everything Article 17 has erased (the
// snapshot is generated from post-erasure state, so erased data never
// crosses the wire).
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
	return s.snapshotAll(emit)
}

// AddReplica seeds a fresh replica from the current dataset and attaches
// it to the stream. Writes concurrent with attachment may be applied
// twice, which the replica tolerates (ops are idempotent).
func (s *Store) AddReplica() (*replica.Replica, error) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if s.primary == nil {
		return nil, errors.New("core: replication not enabled")
	}
	rdb := store.New(store.Options{Clock: s.cfg.Config.Clock, Seed: s.cfg.Seed + 1})
	r, err := s.primary.Attach(s.db, rdb)
	if err != nil {
		return nil, err
	}
	s.auditOp(audit.Record{
		Actor: "system:replication", Op: "ADDREPLICA", Outcome: audit.OutcomeOK,
	})
	return r, nil
}

// Primary returns the replication fan-out, or nil if replication is off.
func (s *Store) Primary() *replica.Primary {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	return s.primary
}

// SetBackupManager registers a backup manager whose generations the store
// keeps consistent with erasure: real-time Forget refreshes the backups
// synchronously; eventual timing defers the refresh to Maintain.
func (s *Store) SetBackupManager(m *backup.Manager) {
	s.gmu.Lock()
	s.backups = m
	s.gmu.Unlock()
}

// Backup writes a new backup generation now.
func (s *Store) Backup() (string, error) {
	s.gmu.Lock()
	m := s.backups
	s.gmu.Unlock()
	if m == nil {
		return "", errors.New("core: no backup manager registered")
	}
	path, err := m.Create(s.db)
	if err != nil {
		return "", err
	}
	s.auditOp(audit.Record{
		Actor: "system:backup", Op: "BACKUP", Outcome: audit.OutcomeOK, Detail: path,
	})
	return path, nil
}

// propagateErasure completes an Article 17 erasure across the subsystems
// beyond the main engine: the AOF (compaction), the replicas (drain the
// stream), and the backups (refresh generations). It is whole-store work:
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
	if s.primary != nil {
		s.primary.Flush()
	}
	if s.backups != nil {
		if _, removed, err := s.backups.Refresh(s.db); err != nil {
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
