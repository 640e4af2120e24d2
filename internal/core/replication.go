package core

import (
	"errors"
	"fmt"
	"path/filepath"

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
	if s.hub != nil {
		legs = append(legs, s.hub)
	}
	s.db.SetJournal(store.NewMultiJournal(legs...))
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

// RestoreBackup replaces the keyspace with the newest backup generation,
// under the whole-store lock, and returns how many of its records it applied
// and how many it skipped as crypto-erased. DESIGN.md §13 states its seven
// rules; the steps below carry their numbers.
func (s *Store) RestoreBackup(ctx Ctx) (applied, skipped int, err error) {
	s.lockAll()
	defer s.unlockAll()
	if s.backups == nil {
		return 0, 0, errNoBackups
	}
	if s.closed.Load() {
		return 0, 0, ErrClosed
	}
	// 1. Paying owed erasure propagation refreshes the generations, so none
	// taken before a Forget comes back.
	if s.pendingRewrite.Load() {
		if err := s.propagateErasureLocked(ctx); err != nil {
			return 0, 0, err
		}
	}
	// 2. The whole generation is read and vetted before the keyspace is
	// touched. A second read then fills it one record at a time; lockAll
	// keeps Backup and Refresh from writing a newer generation in between.
	gen, err := s.backups.RestoreLatest(vetBackupRecord)
	if err != nil {
		return 0, 0, err
	}
	// 6. The live standing objections, merged into the generation's below.
	// An erased owner record outlives the FLUSHALL itself.
	merge := map[string][]string{}
	for _, k := range s.db.Keys(ownerKeyPrefix + "*") {
		owner, _ := ReservedKey(k)
		merge[owner] = s.Objections(owner)
	}
	s.FlushAll() // 3. hands its FLUSHALL to the journal before it returns
	_, err = s.backups.RestoreLatest(func(name string, args [][]byte) error {
		if name == opRecord {
			m, _ := decodeMetadata(args[0]) // vetted on the first read
			// 5. Dead under the live keyring: erased since the backup.
			if s.keyring != nil && m.Owner != "" && !s.keyring.RecordLive(m.Owner, m.KeyEpoch) {
				skipped++
				return nil
			}
		}
		// 4. Applied as replay applies it and journaled, so the AOF, a
		// restart and an attached replica converge.
		err := s.applyRecord(name, args)
		if err == nil {
			if err = s.appendLog(name, args...); err == nil {
				applied++
			}
		}
		return err
	})
	if err != nil {
		return applied, skipped, err
	}
	// 6. One merge, through OBJECT's own locked half (lockAll holds the
	// owner stripes): one owner record each.
	for owner, set := range merge {
		if err := s.objectTo(owner, set); err != nil {
			return applied, skipped, err
		}
	}
	s.auditOp(audit.Record{ // 7.
		Actor: ctx.Actor, Op: "RESTORE", Outcome: audit.OutcomeOK,
		Detail: fmt.Sprintf("generation=%s applied=%d skipped=%d", filepath.Base(gen), applied, skipped),
	})
	return applied, skipped, nil
}

// vetBackupRecord admits to a restore only what snapshotRecords writes, well
// formed: anything else, key material above all, refuses the generation.
// An earlier release's record-level objections (a GREC listing them for an
// ordinary key), an objection delta (GOBJ/GUNOBJ) or an erasure mark
// (GSHRED) is refused as retired, with its upgrade step. No generation ever
// held a GMETA.
func vetBackupRecord(name string, args [][]byte) (err error) {
	var retired error
	switch {
	case name == "SET" && len(args) == 2:
	case name == "SETEX" && len(args) == 3:
		_, err = store.DecodeDeadline(args[1])
	case name == opRecord && len(args) >= 3 && len(args)%2 == 1:
		var m Metadata
		if m, err = decodeMetadata(args[0]); err == nil {
			retired = recordObjections(&m, args[1])
		}
	case name == "GOBJ" || name == "GUNOBJ" || name == "GSHRED":
		retired = fmt.Errorf("%w: %s", ErrRetiredFormat, name)
	default:
		err = fmt.Errorf("core: restore: a backup generation may not hold %s with %d args", name, len(args))
	}
	if retired != nil {
		err = fmt.Errorf("core: restore: %w; restore the generation with the previous release and take a new one", retired)
	}
	return err
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
