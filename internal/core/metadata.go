package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gdprstore/internal/store"
)

// Metadata is the per-record GDPR metadata the compliance layer maintains
// alongside each value. It captures everything Article 15 obliges the
// controller to report back to the data subject: processing purposes,
// recipients, the storage period, and automated decision-making; plus the
// origin (Art. 14), objections (Art. 21), and storage location (Art. 46).
// In memory a record is a store.Record in its key's engine entry; a
// Metadata is built from one where a caller or a format needs it.
type Metadata struct {
	// Owner is the data subject the record belongs to. Required.
	Owner string `json:"owner"`
	// Purposes whitelists the processing purposes the subject consented to
	// (Art. 5 purpose limitation, Art. 13).
	Purposes []string `json:"purposes,omitempty"`
	// Objections blacklists purposes the subject has objected to
	// (Art. 21); an objection overrides a listed purpose.
	Objections []string `json:"objections,omitempty"`
	// Origin records where the data was obtained (Art. 14-15).
	Origin string `json:"origin,omitempty"`
	// SharedWith lists recipients to whom the record was disclosed
	// (Art. 15(1)(c)).
	SharedWith []string `json:"shared_with,omitempty"`
	// Expiry is the retention deadline (Art. 5 storage limitation). Zero
	// means no bound, which full compliance rejects.
	Expiry time.Time `json:"expiry,omitempty"`
	// Location is the region the record is stored in (Art. 46).
	Location string `json:"location,omitempty"`
	// AutomatedDecisions marks use in automated decision-making,
	// disclosed under Art. 15(1)(h) and restricted by Art. 22.
	AutomatedDecisions bool `json:"automated_decisions,omitempty"`
	// Created is when the record was first stored.
	Created time.Time `json:"created"`
	// KeyEpoch is the epoch of the owner's key the value was sealed under
	// (envelope mode). A record whose owner holds no key made at that epoch
	// was crypto-shredded: its key is destroyed and the ciphertext merely
	// awaits the lazy-delete sweep. An owner record's is the epoch its
	// subject was erased at (0: not erased).
	KeyEpoch uint64 `json:"key_epoch,omitempty"`
}

// clone returns a deep copy, for callers outside the package that may write
// to what they are given.
func (m Metadata) clone() Metadata {
	c := m
	c.Purposes = append([]string(nil), m.Purposes...)
	c.Objections = append([]string(nil), m.Objections...)
	c.SharedWith = append([]string(nil), m.SharedWith...)
	return c
}

// permits reports whether processing under purpose is permitted by p, the
// policy of a record whose owner stands by objections: it must be
// whitelisted and not objected to. The empty purpose is never permitted on
// records with purpose restrictions.
func permits(p *store.Policy, objections []string, purpose string) bool {
	for _, o := range objections {
		if o == purpose || o == "*" {
			return false
		}
	}
	for _, w := range p.Purposes {
		if w == purpose || w == "*" {
			return true
		}
	}
	return false
}

// noCreated is a record's Created when its metadata has none. It is the one
// instant the record codec holds that a record cannot: a Created that far
// back (1677) reads as none.
const noCreated = math.MinInt64

// metadataOf is the exported form of rec, the record of a key whose engine
// deadline is deadline (zero: none). Its slices are the policy's: read them,
// or clone. Its Objections are an owner record's set, and none for any
// other record: a caller that reports a record fills in its owner's.
func metadataOf(rec *store.Record, deadline time.Time) Metadata {
	p := rec.Policy
	m := Metadata{
		Owner:              p.Owner,
		Purposes:           p.Purposes,
		Objections:         p.Objections,
		Origin:             p.Origin,
		SharedWith:         p.SharedWith,
		Location:           p.Location,
		AutomatedDecisions: p.Automated,
		KeyEpoch:           rec.Epoch,
	}
	if !deadline.IsZero() {
		m.Expiry = deadline.UTC()
	}
	if rec.Created != noCreated {
		m.Created = time.Unix(0, rec.Created).UTC()
	}
	return m
}

// createdNS is a creation time as a record holds it: canonicalTime's
// instant, which round-trips through metadataOf exactly.
func createdNS(t time.Time) int64 {
	if t.IsZero() {
		return noCreated
	}
	return unixNano(t)
}

// recordOf is the record of a write or a replayed write with metadata m,
// under the owner's shared policy when m's terms are the owner's current
// ones. The deadline is not in it: the engine holds that, and m's
// objections are its owner record's.
func (s *Store) recordOf(m *Metadata) *store.Record {
	cand := store.Policy{
		Owner: m.Owner, Purposes: m.Purposes, Origin: m.Origin,
		SharedWith: m.SharedWith, Location: m.Location, Automated: m.AutomatedDecisions,
	}
	return &store.Record{Policy: s.ix.policy(&cand), Created: createdNS(m.Created), Epoch: m.KeyEpoch}
}

// ownerOf is rec's owner, "" for a key without a record.
func ownerOf(rec *store.Record) string {
	if rec == nil {
		return ""
	}
	return rec.Policy.Owner
}

// metaIndex holds the secondary indexes the paper's "metadata indexing"
// feature calls for: all keys of a subject (Art. 15/17/20) and all keys
// processable under a purpose (Art. 21), without a keyspace scan. The
// records themselves live in their keys' engine entries. The index follows
// them from one place, changed, which the engine calls under the key's
// shard lock on every install, replacement and removal of a record, expiry
// and FLUSHALL included: no index entry outlives its record. A key leaves
// its owner's set only when its record goes or names another owner, so
// re-recording it under the same owner (a re-Put) never hides it from a
// reader of that set. Each set is an orderedKeys, so a reader gets its keys
// in ascending order without sorting them. The sets are striped by name; a
// stripe lock is a leaf, held for one set operation.
type metaIndex struct {
	byOwner, byPurpose []setShard
	// ownerRecords counts the owner records the engine holds (Store.Len),
	// and erasedOwners those that hold an erasure (ErasureStats).
	ownerRecords, erasedOwners atomic.Int64
}

// keySet is the keys of one owner or one purpose. An owner's also holds the
// policy of the owner's latest write, which the owner's next write reuses
// when its terms are equal; it goes with the owner's last record.
type keySet struct {
	keys   orderedKeys
	policy *store.Policy
}

// setShard is one stripe of a name→keySet index.
type setShard struct {
	mu sync.Mutex
	m  map[string]*keySet
}

func newMetaIndex() *metaIndex {
	ix := &metaIndex{byOwner: make([]setShard, stripeCount), byPurpose: make([]setShard, stripeCount)}
	for i := 0; i < stripeCount; i++ {
		ix.byOwner[i].m = make(map[string]*keySet)
		ix.byPurpose[i].m = make(map[string]*keySet)
	}
	return ix
}

func stripeOf(shards []setShard, name string) *setShard {
	return &shards[stripeIndex(name)]
}

// changed is the engine's record observer (store.DB.OnRecord): key's record
// went from old to new, either nil for none. An overwrite under the same
// shared policy, the usual re-Put, touches no stripe.
func (ix *metaIndex) changed(key string, old, new *store.Record) {
	if _, owned := ReservedKey(key); owned {
		ix.ownerRecords.Add(one(new != nil) - one(old != nil))
		ix.erasedOwners.Add(one(new != nil && new.Epoch > 0) - one(old != nil && old.Epoch > 0))
	}
	var op, np *store.Policy
	if old != nil {
		op = old.Policy
	}
	if new != nil {
		np = new.Policy
	}
	if op == np {
		return
	}
	if op == nil || np == nil || op.Owner != np.Owner {
		if op != nil {
			stripeOf(ix.byOwner, op.Owner).remove(op.Owner, key)
		}
		if np != nil {
			stripeOf(ix.byOwner, np.Owner).add(np.Owner, key, np)
		}
	}
	if op != nil && np != nil && slices.Equal(op.Purposes, np.Purposes) {
		return
	}
	if op != nil {
		for _, p := range op.Purposes {
			stripeOf(ix.byPurpose, p).remove(p, key)
		}
	}
	if np != nil {
		for _, p := range np.Purposes {
			stripeOf(ix.byPurpose, p).add(p, key, nil)
		}
	}
}

// one is 1 for true and 0 for false.
func one(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// add puts key in name's set, created with policy p if name had none.
func (sh *setShard) add(name, key string, p *store.Policy) {
	if name == "" {
		return
	}
	sh.mu.Lock()
	set, ok := sh.m[name]
	if !ok {
		set = &keySet{policy: p}
		sh.m[name] = set
	}
	set.keys.add(key)
	sh.mu.Unlock()
}

func (sh *setShard) remove(name, key string) {
	sh.mu.Lock()
	if set, ok := sh.m[name]; ok {
		set.keys.remove(key)
		if set.keys.n == 0 {
			delete(sh.m, name)
		}
	}
	sh.mu.Unlock()
}

// appendKeys appends the members of name's set to dst in ascending order.
func (sh *setShard) appendKeys(dst []string, name string) []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if set := sh.m[name]; set != nil {
		dst = set.keys.appendTo(slices.Grow(dst, set.keys.n))
	}
	return dst
}

// ownerKeys appends the keys that hold a record of owner to dst.
func (ix *metaIndex) ownerKeys(dst []string, owner string) []string {
	return stripeOf(ix.byOwner, owner).appendKeys(dst, owner)
}

// owners returns every owner the index holds a record of.
func (ix *metaIndex) owners() []string {
	var out []string
	for i := range ix.byOwner {
		sh := &ix.byOwner[i]
		sh.mu.Lock()
		for o := range sh.m {
			out = append(out, o)
		}
		sh.mu.Unlock()
	}
	return out
}

// purposeKeys returns the keys whitelisted for purpose.
func (ix *metaIndex) purposeKeys(purpose string) []string {
	return stripeOf(ix.byPurpose, purpose).appendKeys(nil, purpose)
}

// ownerKeyCount returns how many keys hold a record of owner without
// materialising the key slice — the O(1) cardinality the crypto-shred fast
// path reports as its erasure count.
func (ix *metaIndex) ownerKeyCount(owner string) int {
	sh := stripeOf(ix.byOwner, owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if set := sh.m[owner]; set != nil {
		return set.keys.n
	}
	return 0
}

// policy returns the shared policy for a write under cand's terms: the
// owner's current one when its terms are cand's, else a copy of cand, which
// becomes the owner's current one. cand may alias the caller's memory; only
// a miss copies it.
func (ix *metaIndex) policy(cand *store.Policy) *store.Policy {
	sh := stripeOf(ix.byOwner, cand.Owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	set := sh.m[cand.Owner]
	if set != nil && samePolicy(set.policy, cand) {
		return set.policy
	}
	p := &store.Policy{
		Owner:      cand.Owner,
		Purposes:   append([]string(nil), cand.Purposes...),
		Origin:     cand.Origin,
		SharedWith: append([]string(nil), cand.SharedWith...),
		Location:   cand.Location,
		Automated:  cand.Automated,
	}
	if set != nil {
		set.policy = p
	}
	return p
}

// defaultPurposes is the purpose list of a write for owner that names none,
// under the context purpose purpose: the owner's current policy's own list
// when it is just that one, so the write allocates nothing for it.
func (ix *metaIndex) defaultPurposes(owner, purpose string) []string {
	sh := stripeOf(ix.byOwner, owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if set := sh.m[owner]; set != nil && len(set.policy.Purposes) == 1 && set.policy.Purposes[0] == purpose {
		return set.policy.Purposes
	}
	return []string{purpose}
}

// samePolicy reports whether p and c are the same terms.
func samePolicy(p, c *store.Policy) bool {
	return p.Owner == c.Owner && p.Origin == c.Origin && p.Location == c.Location && p.Automated == c.Automated &&
		slices.Equal(p.Purposes, c.Purposes) && slices.Equal(p.SharedWith, c.SharedWith)
}
