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
//
// A note is the caller's own journal record of the change, `name key
// note(rec, deadline)`, rendered from the record and deadline the key holds
// after it. It runs under the shard lock, like the OnRecord observer, and
// must not call back into the DB. The journal's error for it is returned, as
// SetRecorded returns its own. A nil note journals nothing of the caller's.

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

// SetRecordIf replaces key's record with new if the key is live and its
// record is still old, keeping value and deadline, and journals the note of
// new. It reports whether it replaced the record.
func (db *DB) SetRecordIf(key string, old, new *Record, name string, note func(*Record, time.Time) []byte) (bool, error) {
	sh := db.shardFor(key)
	ticket := db.jq.ticket(note != nil)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	if ok = ok && e.rec == old; ok {
		e.rec = new
		sh.dict[key] = e
		db.recordChanged(key, old, new)
		db.noteLocked(ticket, name, key, note, new, e.deadline)
	}
	sh.mu.Unlock()
	return ok, db.jq.done(ticket)
}

// ExpireAtIf is ExpireAt for a key whose record is still rec (nil: none):
// it gives the key the deadline, journaled as EXPIREAT followed by the note
// of rec, or deletes it if the deadline has passed. It reports whether the
// key was live with that record.
func (db *DB) ExpireAtIf(key string, rec *Record, deadline time.Time, name string, note func(*Record, time.Time) []byte) (bool, error) {
	sh := db.shardFor(key)
	ticket := db.jq.ticket(note != nil && rec != nil)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	if ok = ok && e.rec == rec; ok && db.setDeadlineLocked(sh, key, e, deadline) {
		db.noteLocked(ticket, name, key, note, rec, deadlineNS(deadline))
	}
	sh.mu.Unlock()
	return ok, db.jq.done(ticket)
}

// noteLocked enqueues `name key note(rec, deadline)` under ticket, unless
// ticket is 0 (nothing to note, or no journal). Callers hold key's shard
// lock.
func (db *DB) noteLocked(ticket uint64, name, key string, note func(*Record, time.Time) []byte, rec *Record, deadline int64) {
	if ticket != 0 {
		db.jq.enqueueTicket(ticket, name, [][]byte{[]byte(key), note(rec, deadlineTime(deadline))})
	}
}
