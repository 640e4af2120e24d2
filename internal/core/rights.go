package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/store"
)

// UserRecord pairs one key the subject owns with its value and metadata.
// The records of one report share memory: a Value is a slice of a buffer
// that also holds its neighbours' values and the nonces and tags they were
// sealed with, and the Metadata's slices are the store's own (immutable)
// ones. Read them; copy before changing anything.
type UserRecord struct {
	Key      string   `json:"key"`
	Value    []byte   `json:"value"`
	Metadata Metadata `json:"metadata"`
}

// GetUser implements Article 15's right of access: it returns every record
// owned by the subject, decrypted, with its metadata. The metadata index
// makes this a lookup rather than a keyspace scan.
//
// The report is the owner's records as of the call: keys written for the
// owner after it started are not in it, and if an erasure of the owner
// lands while it is being assembled the report is empty, never partial.
func (s *Store) GetUser(ctx Ctx, owner string) ([]UserRecord, error) {
	g, err := s.enterRights(owner)
	if err != nil {
		return nil, err
	}
	defer g.RUnlock()
	rep, err := s.collectOwner(ctx, owner, reportRecords)
	return rep.recs, err
}

// UserValues is GetUser for a caller that sends keys and values only (the
// wire's GETUSER): the same pass and the same audit record, with no
// Metadata built. values[i] is the value of keys[i]; the values share
// memory as GetUser's do.
func (s *Store) UserValues(ctx Ctx, owner string) (keys []string, values [][]byte, err error) {
	g, err := s.enterRights(owner)
	if err != nil {
		return nil, nil, err
	}
	defer g.RUnlock()
	rep, err := s.collectOwner(ctx, owner, reportValues)
	return rep.keys, rep.values, err
}

// valueChunk is how much value space collectOwner allocates at a time, so
// a report costs one allocation per chunk instead of one per record. The
// walk copies each record's stored bytes, nonce and tag included, into the
// chunk; the value is then opened in place there.
const valueChunk = 32 << 10

// reportKind is what an owner-scoped pass gathers for its caller.
type reportKind uint8

const (
	reportValues  reportKind = iota // keys and values (UserValues)
	reportRecords                   // UserRecords with Metadata (GetUser, Access, Export)
)

// ownerReport is one owner-scoped pass's answer, in key order: keys and
// values for reportValues, records otherwise.
type ownerReport struct {
	keys   []string
	values [][]byte
	recs   []UserRecord
}

// collectOwner is the one pass behind every owner-scoped read, audited as
// one GETUSER; callers are through owner's gate stripe. Under the owner's
// stripe it decides (ACL) and snapshots what the pass needs once: the
// owner's key list, its data key and key epoch as a prepared cipher, and
// for the kinds that build Metadata its standing objections, which every
// record's Metadata reports. It then runs in three stages with the stripe
// released (see locks.go):
//
//  1. probe: walkKeys looks up a batch of keys at a time, one lock per
//     engine shard, value and record together, judged at one clock
//     reading (a record's retention deadline is judged as of the moment
//     the report was asked for);
//  2. gather: the visit checks owner and epoch and copies each live
//     record's stored bytes, still sealed, into the report's own chunks,
//     building Metadata only for the kinds that return it;
//  3. open: after the walk, each value is opened in place in those chunks.
//     The engine's lent slices are only ever read.
//
// The key epoch is read again at the end: a Forget that got in between makes
// the whole answer the erased one.
func (s *Store) collectOwner(ctx Ctx, owner string, kind reportKind) (ownerReport, error) {
	os := s.lockOwner(owner)
	if s.keyring == nil {
		// No key epoch to re-read after the walk; the stripe is what keeps
		// an eager Forget from deleting half of what the walk reports.
		defer os.Unlock()
	}
	var rep ownerReport
	var keys, objections []string
	var oc ownerCipher
	err := s.check(ctx, acl.OpRights, owner, "GETUSER", "")
	if err == nil {
		keys = s.ix.ownerKeys(owner)
		oc = s.ownerCipherFor(owner)
		if kind == reportRecords {
			objections = s.Objections(owner)
		}
	}
	if s.keyring != nil {
		os.Unlock()
	}
	if err != nil {
		return rep, err
	}

	if kind == reportValues {
		// The snapshot is this call's own copy and the walk visits it in
		// order, so the reported keys compact into its front.
		rep.keys = keys[:0]
		rep.values = make([][]byte, 0, len(keys))
	} else {
		rep.recs = make([]UserRecord, 0, len(keys))
	}
	var buf []byte
	n := 0
	s.walkKeys(owner, keys, true, func(k string, e store.Entry) bool {
		if !oc.live(e.Record) {
			// Crypto-erased, awaiting the sweep: the subject's report must
			// not resurrect data they asked to be forgotten.
			return true
		}
		v := e.Value
		if cap(buf)-len(buf) < len(v) {
			// Room for the records still to come if they are this size,
			// a chunk at most, this record at least.
			buf = make([]byte, 0, max(len(v), min(len(v)*(len(keys)-n), valueChunk)))
		}
		start := len(buf)
		buf = append(buf, v...)
		v = buf[start:len(buf):len(buf)]
		if kind == reportValues {
			rep.keys = append(rep.keys, k)
			rep.values = append(rep.values, v)
		} else {
			m := metadataOf(e.Record, e.Deadline)
			m.Objections = objections
			rep.recs = append(rep.recs, UserRecord{Key: k, Value: v, Metadata: m})
		}
		n++
		return true
	})
	if oc.sealed {
		var ad []byte
		open := func(k string, sealed []byte) ([]byte, error) {
			ad = append(ad[:0], k...)
			return oc.c.OpenInPlace(sealed, ad)
		}
		for i, k := range rep.keys {
			if rep.values[i], err = open(k, rep.values[i]); err != nil {
				return ownerReport{}, err
			}
		}
		for i := range rep.recs {
			if rep.recs[i].Value, err = open(rep.recs[i].Key, rep.recs[i].Value); err != nil {
				return ownerReport{}, err
			}
		}
		if !s.keyring.RecordLive(owner, oc.epoch) {
			// A Forget shredded the key during the walk. The erasure is
			// acknowledged (or about to be): answer as after it.
			rep.keys, rep.values, rep.recs, n = rep.keys[:0], rep.values[:0], rep.recs[:0], 0
		}
	}
	// Formatted into a stack buffer: one allocation whatever n (fmt would
	// box an n of 256 or more).
	var detail [32]byte
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "GETUSER", Owner: owner, Purpose: ctx.Purpose,
		Outcome: audit.OutcomeOK, Detail: string(strconv.AppendInt(append(detail[:0], "records="...), int64(n), 10)),
	})
	return rep, nil
}

// AccessReport is the Article 15 disclosure: purposes of processing,
// recipients, storage periods, origin, and automated decision-making, per
// record and aggregated.
type AccessReport struct {
	Owner       string    `json:"owner"`
	GeneratedAt time.Time `json:"generated_at"`
	RecordCount int       `json:"record_count"`
	// Purposes aggregates the distinct processing purposes in effect.
	Purposes []string `json:"purposes"`
	// Recipients aggregates the distinct disclosure recipients.
	Recipients []string `json:"recipients"`
	// Objections lists the subject's standing objections.
	Objections []string `json:"objections"`
	// EarliestExpiry and LatestExpiry bound the storage periods.
	EarliestExpiry time.Time `json:"earliest_expiry,omitempty"`
	LatestExpiry   time.Time `json:"latest_expiry,omitempty"`
	// AutomatedDecisions reports whether any record feeds automated
	// decision-making (Art. 15(1)(h)).
	AutomatedDecisions bool `json:"automated_decisions"`
	// Records carries the per-record detail.
	Records []UserRecord `json:"records"`
}

// Access builds the Article 15 report for owner.
func (s *Store) Access(ctx Ctx, owner string) (AccessReport, error) {
	g, err := s.enterRights(owner)
	if err != nil {
		return AccessReport{}, err
	}
	defer g.RUnlock()
	pass, err := s.collectOwner(ctx, owner, reportRecords)
	if err != nil {
		return AccessReport{}, err
	}
	recs := pass.recs
	rep := AccessReport{
		Owner:       owner,
		GeneratedAt: s.cfg.Config.Clock.Now(),
		RecordCount: len(recs),
		Objections:  s.Objections(owner),
		Records:     recs,
	}
	pset, rset := map[string]struct{}{}, map[string]struct{}{}
	for _, r := range recs {
		for _, p := range r.Metadata.Purposes {
			pset[p] = struct{}{}
		}
		for _, rc := range r.Metadata.SharedWith {
			rset[rc] = struct{}{}
		}
		if r.Metadata.AutomatedDecisions {
			rep.AutomatedDecisions = true
		}
		e := r.Metadata.Expiry
		if !e.IsZero() {
			if rep.EarliestExpiry.IsZero() || e.Before(rep.EarliestExpiry) {
				rep.EarliestExpiry = e
			}
			if e.After(rep.LatestExpiry) {
				rep.LatestExpiry = e
			}
		}
	}
	for p := range pset {
		rep.Purposes = append(rep.Purposes, p)
	}
	for r := range rset {
		rep.Recipients = append(rep.Recipients, r)
	}
	sort.Strings(rep.Purposes)
	sort.Strings(rep.Recipients)
	return rep, nil
}

// Export implements Article 20's right to data portability: every record
// of the subject serialised in a commonly used, machine-readable format
// (JSON), ready for transmission to another controller.
func (s *Store) Export(ctx Ctx, owner string) ([]byte, error) {
	g, err := s.enterRights(owner)
	if err != nil {
		return nil, err
	}
	defer g.RUnlock()
	pass, err := s.collectOwner(ctx, owner, reportRecords)
	if err != nil {
		return nil, err
	}
	payload := struct {
		Format  string       `json:"format"`
		Owner   string       `json:"owner"`
		Records []UserRecord `json:"records"`
	}{Format: "gdprstore-export/v1", Owner: owner, Records: pass.recs}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return nil, err
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "EXPORTUSER", Owner: owner, Purpose: ctx.Purpose,
		Outcome: audit.OutcomeOK, Detail: fmt.Sprintf("bytes=%d", len(b)),
	})
	return b, nil
}

// ImportExport ingests a portability payload produced by Export (the
// receiving-controller half of Article 20). Records are written with their
// original metadata; the importing context must be permitted to write for
// each record's owner.
func (s *Store) ImportExport(ctx Ctx, payload []byte) (int, error) {
	var in struct {
		Format  string       `json:"format"`
		Owner   string       `json:"owner"`
		Records []UserRecord `json:"records"`
	}
	if err := json.Unmarshal(payload, &in); err != nil {
		return 0, fmt.Errorf("core: import: %w", err)
	}
	if in.Format != "gdprstore-export/v1" {
		return 0, fmt.Errorf("core: import: unknown format %q", in.Format)
	}
	n := 0
	for _, r := range in.Records {
		opts := PutOptions{
			Owner:              r.Metadata.Owner,
			Purposes:           r.Metadata.Purposes,
			Origin:             r.Metadata.Origin,
			SharedWith:         r.Metadata.SharedWith,
			Location:           r.Metadata.Location,
			AutomatedDecisions: r.Metadata.AutomatedDecisions,
		}
		if !r.Metadata.Expiry.IsZero() {
			opts.ExpireAt = r.Metadata.Expiry
		}
		if err := s.Put(ctx, r.Key, r.Value, opts); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Forget implements Article 17's right to be forgotten.
//
// With envelope encryption on, erasure is O(1) in the subject's data
// footprint: the owner record is journaled erased at the epoch after the
// owner's key, the key is destroyed (crypto-shredding), its slot in the key
// file zeroed in place, GFORGET is journaled, and the call returns — without
// walking the owner's keys, deleting records, or compacting the AOF. The
// wrapped key was never in the AOF, so once the slot is zeroed no copy of
// the ciphertext (engine, AOF history, replicas, backups) opens with the
// master key and the store's own files; under real-time timing the zeroed
// slot is durable before the call returns. The erasure is final: the owner
// record refuses every later write for the owner, and it travels as any
// record does, to the AOF, replicas, backups and a migrated slot's new node.
// The background lazy-delete sweep (maintain.go) reclaims the dead
// ciphertext and triggers compaction off the ack path. The records reach
// replicas through the ordinary journal stream, and each zeroes its own
// slot; the hub's in-memory backlog keeps the owner's GKEY frame until it
// wraps (DESIGN.md §13).
//
// Without a keyring, erasure falls back to the eager path: every record of
// the subject is deleted from the engine and indexes under stripe locks,
// and real-time timing compacts the AOF before returning. It returns the
// number of records erased.
func (s *Store) Forget(ctx Ctx, owner string) (int, error) {
	n, err := s.forget(ctx, owner)
	if err != nil || s.keyring != nil {
		return n, err
	}
	s.pendingRewrite.Store(true)
	if s.cfg.Timing == TimingRealTime {
		// Whole-store work, after the call has left its gate stripe.
		err = s.propagateErasure(ctx)
	}
	return n, err
}

// forget is Forget's gated half: the erasure itself, under the owner's gate
// stripe and owner stripe.
func (s *Store) forget(ctx Ctx, owner string) (int, error) {
	g, err := s.enterRights(owner)
	if err != nil {
		return 0, err
	}
	defer g.RUnlock()
	defer s.lockOwner(owner).Unlock()
	if err := s.check(ctx, acl.OpRights, owner, "FORGETUSER", ""); err != nil {
		return 0, err
	}
	if s.keyring != nil {
		return s.forgetShredLocked(ctx, owner)
	}
	// The owner stripe freezes the owner's key set (no new Puts for this
	// owner can land); each key is erased only if it still holds the record
	// the walk found: another subject may have re-Put one of these keys
	// since the index snapshot, and erasing it here would destroy *their*
	// record.
	n := 0
	s.walkOwner(owner, func(k string, e store.Entry) bool {
		if s.db.DeleteIf(k, e.Record) {
			n++
		}
		return true
	})
	// The erasure marker follows the per-key DELs in the journal stream:
	// replicas replay it after the deletions and audit that the Article 17
	// erasure reached their copy.
	if err := s.appendLog(opForget, []byte(owner)); err != nil {
		return n, err
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "FORGETUSER", Owner: owner, Purpose: ctx.Purpose,
		Outcome: audit.OutcomeOK, Detail: fmt.Sprintf("erased=%d", n),
	})
	return n, nil
}

// forgetShredLocked is the crypto-shred fast path of Forget; the caller
// holds the owner stripe. The work is constant-time in the owner's key
// count: one owner record written, one key destroyed and its slot zeroed
// (setOwner), one more journal append, one audit record. The owner's
// records and engine ciphertext are left in place for the sweep; every read
// path treats them as already erased via the record's key epoch. The erased
// count is the owner's records the engine holds: none that expiry has
// already reaped.
func (s *Store) forgetShredLocked(ctx Ctx, owner string) (int, error) {
	n := s.ix.ownerKeyCount(owner)
	epoch, _ := s.keyring.KeyEpoch(owner)
	if err := s.setOwner(owner, s.Objections(owner), epoch+1, true); err != nil {
		return n, err
	}
	if err := s.appendLog(opForget, []byte(owner), []byte(forgetModeShred)); err != nil {
		return n, err
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: "FORGETUSER", Owner: owner, Purpose: ctx.Purpose,
		Outcome: audit.OutcomeOK, Detail: fmt.Sprintf("erased=%d mode=shred", n),
	})
	return n, nil
}

// Object implements Article 21: the subject objects to processing of their
// data for the given purpose ("*" objects to everything). The objection is
// one write of the subject's owner record, which every purpose check of the
// subject's records reads: it takes effect on all of them, existing and
// future, at one instant.
func (s *Store) Object(ctx Ctx, owner, purpose string) error {
	return s.setObjection(ctx, owner, purpose, true)
}

// Unobject withdraws an Article 21 objection.
func (s *Store) Unobject(ctx Ctx, owner, purpose string) error {
	return s.setObjection(ctx, owner, purpose, false)
}

func (s *Store) setObjection(ctx Ctx, owner, purpose string, add bool) error {
	g, err := s.enterRights(owner)
	if err != nil {
		return err
	}
	defer g.RUnlock()
	defer s.lockOwner(owner).Unlock()
	opName := "OBJECT"
	if !add {
		opName = "UNOBJECT"
	}
	if err := s.check(ctx, acl.OpRights, owner, opName, ""); err != nil {
		return err
	}
	if add {
		err = s.objectTo(owner, []string{purpose})
	} else {
		rest := slices.DeleteFunc(slices.Clone(s.Objections(owner)), func(p string) bool { return p == purpose })
		err = s.setOwner(owner, rest, 0, true)
	}
	if err != nil {
		return err
	}
	s.auditOp(audit.Record{
		Actor: ctx.Actor, Op: opName, Owner: owner, Purpose: purpose,
		Outcome: audit.OutcomeOK,
	})
	return nil
}

// ownerKeyPrefix begins an owner record's key, "\x00owner:{owner}": the
// engine entry, with an empty value and no deadline, whose policy holds a
// subject's standing objections (Art. 21), sorted, the one place they live,
// and whose epoch is the key epoch the subject was erased at (Art. 17; 0:
// not erased). Its policy names no owner, so no index, rights read or
// erasure sees it. No call names its key (enter), and no listing shows it
// (KeyVisible). DESIGN.md §5.2.
const ownerKeyPrefix = "\x00owner:"

// ReservedKey reports whether key is an owner record's, which no call
// names, and whose record it is.
func ReservedKey(key string) (owner string, ok bool) {
	owner, ok = strings.CutPrefix(key, ownerKeyPrefix)
	return strings.TrimSuffix(strings.TrimPrefix(owner, "{"), "}"), ok
}

// OwnerKey returns owner's owner record key.
func OwnerKey(owner string) string { return ownerKeyPrefix + "{" + owner + "}" }

// ownerRecord returns owner's owner record, nil for none, read from a stack
// key: every write and every purpose check reads it. While the engine holds
// no owner record at all, it looks nothing up.
func (s *Store) ownerRecord(owner string) *store.Record {
	if s.ix.ownerRecords.Load() == 0 {
		return nil
	}
	var buf [64]byte
	k := append(append(append(buf[:0], ownerKeyPrefix+"{"...), owner...), '}')
	return s.db.RecordOf(unsafe.String(unsafe.SliceData(k), len(k)))
}

// Objections returns the subject's standing objections, sorted: the owner
// record's slice, to be read only.
func (s *Store) Objections(owner string) []string {
	if rec := s.ownerRecord(owner); rec != nil {
		return rec.Policy.Objections
	}
	return nil
}

// Erased reports whether owner's subject is erased here: its owner record
// holds an erasure.
func (s *Store) Erased(owner string) bool { return s.erasedAt(owner) > 0 }

// erasedAt is the key epoch owner's subject was erased at here, 0 for none.
func (s *Store) erasedAt(owner string) uint64 {
	if rec := s.ownerRecord(owner); rec != nil {
		return rec.Epoch
	}
	return 0
}

// erasedOwnerRecord reports whether key holds an erased subject's owner
// record: what a FLUSHALL keeps (store.DB.KeepOnFlush).
func erasedOwnerRecord(key string, rec *store.Record) bool {
	_, owned := ReservedKey(key)
	return owned && rec.Epoch > 0
}

// noObjections is the policy of an owner record that holds an erasure and
// no objection, shared by all of them.
var noObjections = &store.Policy{}

// setOwner makes the sorted set owner's standing objections and erased the
// key epoch owner's subject was erased at, keeping a later erasure the owner
// record already holds: an erasure is never undone. It writes the owner
// record and nothing else, since every purpose check of the owner's records
// reads the objections there. An erasure it adds destroys owner's key if it
// was made before that epoch, zeroes the key's slot in the key file and
// queues the owner's records for the sweep. With journal (callers hold
// owner's stripe) the owner record, a GREC or its DEL, is journaled ahead of
// the slot's zeroing and the journal's error returned; without (replay, the
// stream) nothing is.
func (s *Store) setOwner(owner string, set []string, erased uint64, journal bool) error {
	var prev []string
	var was uint64
	if rec := s.ownerRecord(owner); rec != nil {
		prev, was = rec.Policy.Objections, rec.Epoch
	}
	erased = max(erased, was)
	if slices.Equal(prev, set) && erased == was {
		return nil
	}
	key, p := OwnerKey(owner), noObjections
	if len(set) > 0 {
		p = &store.Policy{Objections: set}
	}
	rec := &store.Record{Policy: p, Created: noCreated, Epoch: erased}
	var err error
	switch empty := len(set) == 0 && erased == 0; {
	case !journal && empty:
		_ = s.db.Apply("DEL", [][]byte{[]byte(key)}) // a one-key DEL cannot fail
	case !journal:
		s.db.Restore(key, nil, rec, time.Time{})
	case empty:
		s.db.Del(key)
	default:
		err = s.db.SetRecorded([]string{key}, [][]byte{nil}, rec, time.Time{}, opRecord, encodeMetadata(rec, time.Time{}))
	}
	if erased > was {
		if kerr := s.eraseKey(owner, erased); err == nil {
			err = kerr
		}
	}
	return err
}

// objectTo unites objections into owner's standing objections, as OBJECT
// does, and journals the owner record.
func (s *Store) objectTo(owner string, objections []string) error {
	if len(objections) == 0 {
		return nil
	}
	set := append(slices.Clone(s.Objections(owner)), objections...)
	slices.Sort(set)
	return s.setOwner(owner, slices.Compact(set), 0, true)
}

// eraseKey applies an erasure at epoch to owner's key: a key made before it
// is destroyed and its slot in the key file zeroed, and the owner's records
// the engine holds are queued for the sweep. A key made at epoch or later
// is not the one erased, and stays.
func (s *Store) eraseKey(owner string, epoch uint64) error {
	if s.keyring == nil {
		return nil
	}
	if e, ok := s.keyring.KeyEpoch(owner); ok && e >= epoch {
		return nil
	}
	s.keyring.Shred(owner)
	if s.ix.ownerKeyCount(owner) > 0 {
		s.markErasurePending(owner)
	}
	return s.dropKey(owner)
}

// KeysByPurpose returns the keys whitelisted for a processing purpose that
// are not objected to — the Art. 21-aware purpose query of §5.1. Each
// owner's objections are read once.
func (s *Store) KeysByPurpose(ctx Ctx, purpose string) ([]string, error) {
	if !s.cfg.Compliant {
		return nil, ErrNotCompliant
	}
	g, err := s.enter(purpose)
	if err != nil {
		return nil, err
	}
	defer g.RUnlock()
	if err := s.check(ctx, acl.OpRead, "", "KEYSBYPURPOSE", ""); err != nil {
		return nil, err
	}
	keys := s.ix.purposeKeys(purpose)
	out := make([]string, 0, len(keys))
	objections := map[string][]string{}
	now := s.cfg.Config.Clock.Now()
	for _, k := range keys {
		e, _ := s.db.Peek(k, now)
		r := e.Record
		if r == nil || s.recordDead(r) {
			continue
		}
		o, ok := objections[r.Policy.Owner]
		if !ok {
			o = s.Objections(r.Policy.Owner)
			objections[r.Policy.Owner] = o
		}
		if permits(r.Policy, o, purpose) {
			out = append(out, k)
		}
	}
	s.db.Flush()
	return out, nil
}

// OwnerKeys returns the keys owned by a data subject.
func (s *Store) OwnerKeys(ctx Ctx, owner string) ([]string, error) {
	g, err := s.enterRights(owner)
	if err != nil {
		return nil, err
	}
	defer g.RUnlock()
	defer s.lockOwner(owner).Unlock()
	if err := s.check(ctx, acl.OpRead, owner, "OWNERKEYS", ""); err != nil {
		return nil, err
	}
	out := []string{}
	s.walkOwner(owner, func(k string, e store.Entry) bool {
		if !s.recordDead(e.Record) {
			out = append(out, k)
		}
		return true
	})
	return out, nil
}

// Breach builds the Articles 33/34 breach report over [from, to).
func (s *Store) Breach(ctx Ctx, from, to time.Time) (audit.BreachReport, error) {
	if s.trail == nil {
		return audit.BreachReport{}, ErrNotCompliant
	}
	if err := s.check(ctx, acl.OpAudit, "", "BREACH", ""); err != nil {
		return audit.BreachReport{}, err
	}
	return s.trail.Breach(from, to)
}
