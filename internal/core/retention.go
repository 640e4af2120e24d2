package core

import (
	"time"
)

// RetentionPolicy implements §3.1's observation that GDPR "allows TTL to
// be either a static time or a policy criterion that can be objectively
// evaluated": instead of a single TTL knob, retention can be derived from
// the record's processing purposes.
//
// The effective deadline for a record is the *minimum* across:
//
//   - the writer-requested TTL (if any),
//   - each of the record's purposes' policy durations (a record held for
//     several purposes must honour the shortest — storage limitation binds
//     per purpose),
//   - the policy default (if the record has no covered purpose),
//   - the absolute cap.
//
// A record whose every applicable bound is zero has unbounded retention,
// which full compliance rejects at write time.
type RetentionPolicy struct {
	// PerPurpose maps a processing purpose to its maximum retention.
	PerPurpose map[string]time.Duration
	// Default applies when no purpose of the record is in PerPurpose.
	Default time.Duration
	// Cap bounds every record regardless of purpose; 0 means no cap.
	Cap time.Duration
}

// Effective computes the retention bound for a record with the given
// purposes and writer-requested TTL (0 = unspecified). It returns 0 when
// no bound applies.
func (p *RetentionPolicy) Effective(purposes []string, requested time.Duration) time.Duration {
	if p == nil {
		return requested
	}
	bound := time.Duration(0)
	tighten := func(d time.Duration) {
		if d > 0 && (bound == 0 || d < bound) {
			bound = d
		}
	}
	tighten(requested)
	covered := false
	for _, purpose := range purposes {
		if d, ok := p.PerPurpose[purpose]; ok {
			covered = true
			tighten(d)
		}
	}
	if !covered {
		tighten(p.Default)
	}
	tighten(p.Cap)
	return bound
}

// SetRetentionPolicy installs (or clears, with nil) the purpose-based
// retention policy. It affects subsequent writes; existing deadlines are
// not retrofitted (use Expire for that). The policy pointer is swapped
// atomically, so in-flight writes use either the old or the new policy in
// full — never a mix.
func (s *Store) SetRetentionPolicy(p *RetentionPolicy) {
	s.retention.Store(p)
}

// RetentionFor reports the bound the current configuration would apply to
// a record with the given purposes and requested TTL — useful for consent
// screens that must tell the subject "the period for which the personal
// data will be stored" (Art. 13).
func (s *Store) RetentionFor(purposes []string, requested time.Duration) time.Duration {
	d := s.retention.Load().Effective(purposes, requested)
	if d == 0 {
		d = s.cfg.DefaultTTL
	}
	return d
}

// effectiveDeadline resolves a write's retention deadline under the
// policy, the request, and the config default, relative to now: the one
// clock reading its caller takes for the write. It is returned as the record
// codec carries it (canonicalTime), so the engine, the index and a replay of
// the journal hold the same deadline to the nanosecond.
func (s *Store) effectiveDeadline(now time.Time, opts PutOptions, purposes []string) time.Time {
	p := s.retention.Load()
	var deadline time.Time
	if !opts.ExpireAt.IsZero() {
		deadline = opts.ExpireAt
		// An absolute deadline still respects the policy cap (none
		// without a policy).
		if d := p.Effective(purposes, 0); d > 0 && now.Add(d).Before(deadline) {
			deadline = now.Add(d)
		}
	} else {
		d := p.Effective(purposes, opts.TTL)
		if d == 0 {
			d = s.cfg.DefaultTTL
		}
		if d != 0 {
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
