package core

import (
	"bytes"
	"errors"
	"fmt"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
)

// The batch operations amortise the per-operation compliance overhead the
// paper measures (metadata writes, audit records, AOF appends, lock
// round-trips): a batch of N keys takes the store lock once, journals the
// shared metadata once per touched engine shard (one GREC record each), and
// emits one audit record, instead of paying each cost N times.

// BatchEntry is one key/value pair of a batch write.
type BatchEntry struct {
	Key   string
	Value []byte
}

// BatchGetResult is one positional result of GetBatch. Err is nil for a
// successful read, ErrNotFound for a missing key, and a policy error
// (ErrPurposeDenied, ErrDenied, ErrErased) when that key was refused.
type BatchGetResult struct {
	Value []byte
	Err   error
}

// PutBatch stores every entry under the supplied GDPR metadata (shared by
// the whole batch, like a bulk import of records for one data subject). It
// is the amortised form of calling Put once per entry, through the same
// body (put): one lock acquisition, one ACL decision, one retention/location
// resolution, one journal record per touched engine shard, one audit record.
func (s *Store) PutBatch(ctx Ctx, entries []BatchEntry, opts PutOptions) error {
	if len(entries) == 0 {
		return nil
	}
	keys := make([]string, len(entries))
	vals := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
		vals[i] = e.Value
	}
	if !s.cfg.Compliant {
		s.db.SetBatch(keys, vals)
		return nil
	}
	return s.put(ctx, "MPUT", keys, vals, opts)
}

// GetBatch reads every key under one lock acquisition, enforcing purpose
// limitation and access control per key. Results are positional; a refused
// or missing key does not fail the rest of the batch. Denials are audited
// individually (they are evidence); successful reads are audited once for
// the whole batch when read auditing is on.
func (s *Store) GetBatch(ctx Ctx, keys []string) ([]BatchGetResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]BatchGetResult, len(keys))
	if !s.cfg.Compliant {
		vals, present := s.db.GetBatch(keys)
		for i := range keys {
			if present[i] {
				out[i].Value = vals[i]
			} else {
				out[i].Err = ErrNotFound
			}
		}
		return out, nil
	}
	// One gate stripe, by the first key, for the whole batch, which Close's
	// barrier waits out like every other data-path call. Each key is one
	// engine probe; the batch as a whole is not an atomic snapshot (per-key
	// reads never were, either).
	g, err := s.enter(keys...)
	if err != nil {
		return nil, err
	}
	defer g.RUnlock()
	served, missing := 0, 0
	// Consecutive keys of one owner share one key schedule.
	var oc ownerCipher
	for i, key := range keys {
		v, _, err := s.getLocked(ctx, key, &oc)
		out[i] = BatchGetResult{Value: v, Err: err}
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrNotFound):
			missing++
		}
	}
	if s.cfg.auditReads {
		// Denials were already audited per key by getLocked; this record
		// summarises the data that was actually served (or found missing).
		outcome := audit.OutcomeOK
		if served == 0 {
			outcome = audit.OutcomeMissing
		}
		if served+missing == 0 {
			outcome = audit.OutcomeDenied // every key was refused
		}
		s.auditOp(audit.Record{
			Actor: ctx.Actor, Op: "MGET", Key: keys[0],
			Purpose: ctx.Purpose, Outcome: outcome,
			Detail: fmt.Sprintf("batch=%d served=%d missing=%d denied=%d",
				len(keys), served, missing, len(keys)-served-missing),
		})
	}
	return out, nil
}

// getLocked is the shared single-key read body — ACL check, purpose
// limitation, decryption — used by both Get and GetBatch: one engine probe
// for the value and its record together. Callers are through the gate and
// handle read auditing; denials are audited here (they are evidence
// regardless of the calling path). The owner is returned for the caller's
// audit records. oc carries the owner's prepared cipher and standing
// objections from one key of a call to the next; it is re-read when the
// owner changes or the key it was built from has been shredded since.
func (s *Store) getLocked(ctx Ctx, key string, oc *ownerCipher) (value []byte, owner string, err error) {
	e, ok := s.db.Lookup(key)
	rec := e.Record
	owner = ownerOf(rec)
	if rec != nil {
		if oc.owner != owner || (oc.sealed && !s.keyring.RecordLive(owner, oc.epoch)) {
			*oc = s.ownerCipherFor(owner)
			if s.cfg.Capability == CapabilityFull {
				oc.objections = s.Objections(owner)
			}
		}
		if !oc.live(rec) {
			// Crypto-erased but not yet reclaimed by the sweep: the record
			// is already gone for Article 17 purposes, so serve exactly
			// what a completed sweep would.
			return nil, owner, ErrNotFound
		}
	}
	if err := s.check(ctx, acl.OpRead, owner, "GET", key); err != nil {
		return nil, owner, err
	}
	if rec != nil && s.cfg.Capability == CapabilityFull {
		if !permits(rec.Policy, oc.objections, ctx.Purpose) {
			s.auditOp(audit.Record{
				Actor: ctx.Actor, Op: "GET", Key: key, Owner: owner,
				Purpose: ctx.Purpose, Outcome: audit.OutcomeDenied,
				Detail: "purpose not permitted",
			})
			return nil, owner, fmt.Errorf("%w: %q", ErrPurposeDenied, ctx.Purpose)
		}
	}
	if !ok {
		return nil, owner, ErrNotFound
	}
	if rec != nil && oc.sealed {
		// Opened straight from the lent slice: one allocation, the plaintext.
		v, err := oc.c.Open(nil, e.Value, []byte(key))
		return v, owner, err
	}
	return bytes.Clone(e.Value), owner, nil
}
