package core

import (
	"cmp"
	"time"
)

// effectiveDeadline resolves a write's retention deadline (Art. 5 storage
// limitation) from the request and the config default, relative to now: the
// one clock reading its caller takes for the write. An absolute ExpireAt
// wins; else the requested TTL, else DefaultTTL; else there is none. It is
// returned as the record codec carries it (canonicalTime), so the engine,
// the index and a replay of the journal hold the same deadline to the
// nanosecond.
func (s *Store) effectiveDeadline(now time.Time, opts PutOptions) time.Time {
	deadline := opts.ExpireAt
	if deadline.IsZero() {
		if d := cmp.Or(opts.TTL, s.cfg.DefaultTTL); d != 0 {
			deadline = now.Add(d)
		}
	}
	return canonicalTime(deadline)
}

// RetentionStats is a point-in-time view of retention enforcement — the
// compliance analogue of replication lag. A compliant store promises that
// records vanish when their storage-limitation deadline passes; these
// numbers say how far physical reclamation currently trails that promise.
// Surfaced through INFO retention and the ops server's lag gauges.
type RetentionStats struct {
	// TrackedDeadlines counts keys carrying a retention deadline (TTL).
	TrackedDeadlines int
	// OverdueRecords counts keys past their deadline but still physically
	// present (invisible to reads, but occupying storage).
	OverdueRecords int
	// Lag is the age of the oldest overdue deadline; 0 when nothing is
	// overdue.
	Lag time.Duration
	// ExpiredTotal is the cumulative count of keys reclaimed by expiry.
	ExpiredTotal uint64
	// ExpirerRunning reports whether the maintenance loop expires keys: it
	// runs and the store is a primary.
	ExpirerRunning bool
}

// RetentionStats reports the current retention-enforcement state.
func (s *Store) RetentionStats() RetentionStats {
	overdue, oldest := s.db.RetentionLag()
	return RetentionStats{
		TrackedDeadlines: s.db.ExpireLen(),
		OverdueRecords:   overdue,
		Lag:              oldest,
		ExpiredTotal:     s.db.ExpiredCount(),
		ExpirerRunning:   s.dutiesRunning(),
	}
}
