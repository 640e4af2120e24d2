package store

import (
	"bytes"
	"time"
)

// The conditional operations finish a caller's read-check-write on one key
// under the key's shard lock. Each acts only if the key is live and still
// holds what the caller read and checked: its record, compared by pointer
// (records are immutable, so the pointer names the write that installed it),
// or its stored bytes. Otherwise it does nothing, and the caller reads again
// and decides again. What one journals is enqueued under that lock, so it
// keeps its place among the key's other records on every leg of the journal.

// DeleteIf deletes key if it is live with record rec (nil: none), journaled
// as Del journals it, and reports whether it did.
func (db *DB) DeleteIf(key string, rec *Record) bool {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	if ok = ok && e.rec == rec; ok {
		db.deleteLocked(sh, key, e)
		db.jq.enqueue("DEL", []byte(key))
	}
	sh.mu.Unlock()
	db.jq.flush()
	return ok
}

// DeleteIfValue deletes key if it is live and stores exactly the bytes val,
// journaled as Del journals it. It reports whether it deleted and whether
// the key was live.
func (db *DB) DeleteIfValue(key string, val []byte) (deleted, live bool) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, live := db.liveLocked(sh, key)
	if deleted = live && bytes.Equal(e.val, val); deleted {
		db.deleteLocked(sh, key, e)
		db.jq.enqueue("DEL", []byte(key))
	}
	sh.mu.Unlock()
	db.jq.flush()
	return deleted, live
}

// ExpireAtIf is ExpireAt for a key whose record is still rec (nil: none):
// it gives the key the deadline, journaled as EXPIREAT, or deletes it if the
// deadline has passed. It reports whether the key was live with that record,
// and returns the journal's error for the EXPIREAT.
func (db *DB) ExpireAtIf(key string, rec *Record, deadline time.Time) (bool, error) {
	sh := db.shardFor(key)
	ticket := db.jq.ticket(true)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	if ok = ok && e.rec == rec; ok {
		db.setDeadlineLocked(sh, key, e, deadline, ticket)
	}
	sh.mu.Unlock()
	return ok, db.jq.done(ticket)
}
