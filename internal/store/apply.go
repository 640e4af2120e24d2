package store

import (
	"bytes"
	"fmt"
	"time"
)

// Apply replays one journaled operation without re-journaling it. The AOF
// loader calls this for every record; unknown operation names are reported
// so higher layers (which journal their own record types into the same
// log) can claim them first. Each key is applied under its owning shard's
// lock, so Apply is safe to call concurrently with reads (the replica
// streaming path does).
//
// Deadlines that have already passed are applied as-is: the key becomes
// present-but-expired and is reclaimed by the normal lazy/active paths,
// mirroring how a restarted store re-discovers overdue keys. Replay never
// expires a key by its own clock: SET ... KEEPTTL keeps whatever deadline
// the key has, because the writer that found the key dead journaled the DEL
// first, and a key that died since must not come back without its TTL.
func (db *DB) Apply(name string, args [][]byte) error {
	switch name {
	case "SET":
		if len(args) < 2 {
			return fmt.Errorf("store: apply SET: need 2+ args, got %d", len(args))
		}
		key := string(args[0])
		keepTTL := len(args) >= 3 && bytes.Equal(args[2], []byte("KEEPTTL"))
		if keepTTL {
			sh := db.shardFor(key)
			sh.mu.Lock()
			db.keepTTLLocked(sh, key, sh.dict[key], args[1])
			sh.mu.Unlock()
		} else {
			db.Restore(key, args[1], nil, time.Time{})
		}
	case "SETEX":
		if len(args) != 3 {
			return fmt.Errorf("store: apply SETEX: need 3 args, got %d", len(args))
		}
		deadline, err := DecodeDeadline(args[1])
		if err != nil {
			return fmt.Errorf("store: apply SETEX: %w", err)
		}
		db.Restore(string(args[0]), args[2], nil, deadline)
	case "MSET":
		if len(args) == 0 || len(args)%2 != 0 {
			return fmt.Errorf("store: apply MSET: need even args, got %d", len(args))
		}
		for i := 0; i+1 < len(args); i += 2 {
			db.Restore(string(args[i]), args[i+1], nil, time.Time{})
		}
	case "MSETEX":
		if len(args) < 3 || len(args)%2 != 1 {
			return fmt.Errorf("store: apply MSETEX: need deadline + even pairs, got %d args", len(args))
		}
		deadline, err := DecodeDeadline(args[0])
		if err != nil {
			return fmt.Errorf("store: apply MSETEX: %w", err)
		}
		for i := 1; i+1 < len(args); i += 2 {
			db.Restore(string(args[i]), args[i+1], nil, deadline)
		}
	case "EXPIREAT":
		if len(args) != 2 {
			return fmt.Errorf("store: apply EXPIREAT: need 2 args, got %d", len(args))
		}
		deadline, err := DecodeDeadline(args[1])
		if err != nil {
			return fmt.Errorf("store: apply EXPIREAT: %w", err)
		}
		key := string(args[0])
		sh := db.shardFor(key)
		sh.mu.Lock()
		if e, ok := sh.dict[key]; ok {
			db.putLocked(sh, key, e.val, e.rec, deadlineNS(deadline))
		}
		sh.mu.Unlock()
	case "PERSIST":
		if len(args) != 1 {
			return fmt.Errorf("store: apply PERSIST: need 1 arg, got %d", len(args))
		}
		key := string(args[0])
		sh := db.shardFor(key)
		sh.mu.Lock()
		if e, ok := sh.dict[key]; ok {
			db.putLocked(sh, key, e.val, e.rec, 0)
		}
		sh.mu.Unlock()
	case "READ":
		// Monitoring records from JournalReads mode: no state change.
	case "DEL":
		for _, a := range args {
			key := string(a)
			sh := db.shardFor(key)
			sh.mu.Lock()
			if e, ok := sh.dict[key]; ok {
				db.deleteLocked(sh, key, e)
			}
			sh.mu.Unlock()
		}
	case "FLUSHALL":
		db.lockAll()
		db.resetAllLocked()
		db.unlockAll()
	default:
		return fmt.Errorf("store: apply: unknown op %q", name)
	}
	return nil
}

// SnapshotRecords hands fn every live key with its stored value, record
// and deadline, for a caller that writes its own record per key (AOF
// rewrite, replica seeding, backups). Expired unreclaimed keys are dropped:
// after a rewrite, deleted and expired data no longer persists in the log
// (§4.3's requirement). It is the engine's one stop-the-world operation:
// every shard is locked (in index order, like all cross-shard operations)
// while fn runs, so the cut is globally consistent and replays cleanly
// against the journal stream. The entry is lent, as Lookup lends it.
func (db *DB) SnapshotRecords(fn func(key string, e Entry) error) error {
	db.lockAll()
	defer db.unlockAll()
	now := db.nowNS()
	for _, sh := range db.shards {
		for k, e := range sh.dict {
			if e.deadAt(now) {
				continue // expired: do not resurrect
			}
			if err := fn(k, e.lend()); err != nil {
				return err
			}
		}
	}
	return nil
}
