package core

import (
	"slices"
	"sync"
	"time"
)

// Metadata is the per-record GDPR metadata the compliance layer maintains
// alongside each value. It captures everything Article 15 obliges the
// controller to report back to the data subject: processing purposes,
// recipients, the storage period, and automated decision-making; plus the
// origin (Art. 14), objections (Art. 21), and storage location (Art. 46).
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
	// KeyEpoch is the owner's keyring epoch the value was sealed under
	// (envelope mode). A record whose epoch is older than the keyring's
	// current epoch was crypto-shredded: its key is destroyed and the
	// ciphertext merely awaits the lazy-delete sweep.
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

// owner is m.Owner, "" for a key without metadata (nil m).
func (m *Metadata) owner() string {
	if m == nil {
		return ""
	}
	return m.Owner
}

// PermitsPurpose reports whether processing under the given purpose is
// permitted: it must be whitelisted and not objected to. The empty purpose
// is never permitted on records with purpose restrictions.
func (m Metadata) PermitsPurpose(purpose string) bool {
	for _, o := range m.Objections {
		if o == purpose || o == "*" {
			return false
		}
	}
	for _, p := range m.Purposes {
		if p == purpose || p == "*" {
			return true
		}
	}
	return false
}

// metaIndex maintains the secondary indexes the paper's "metadata
// indexing" feature calls for: find all keys of a subject (Art. 15/17/20)
// and all keys processable under a purpose (Art. 21) without scanning the
// keyspace.
//
// Indexed values are immutable: put publishes a *Metadata that nobody
// writes to afterwards (an update copies, changes the copy and puts it), so
// readers use the pointer get returns without copying it and a batch shares
// one value across its keys.
//
// The index is internally lock-striped so metadata writes for unrelated
// keys/owners never contend: the primary key→Metadata map is sharded by
// key, the owner and purpose association sets by owner/purpose. Each shard
// lock is held only for the individual map operation. The index therefore
// guarantees memory safety and per-map consistency on its own; compound
// read-modify-write invariants (e.g. "engine value and metadata agree for
// key k") are the caller's job, which Store provides via its key/owner
// stripe locks. A key leaves its owner's set only when its new metadata
// names another owner, so re-indexing a key under the same owner (Expire,
// an objection, a re-Put) never hides it from a reader of that set.
type metaIndex struct {
	meta      []metaShard
	byOwner   []assocShard
	byPurpose []assocShard
}

// metaShard is one stripe of the key→Metadata map.
type metaShard struct {
	mu sync.Mutex
	m  map[string]*Metadata
}

// assocShard is one stripe of a string→key-set association index.
type assocShard struct {
	mu sync.Mutex
	m  map[string]map[string]struct{}
}

func newMetaIndex() *metaIndex {
	ix := &metaIndex{
		meta:      make([]metaShard, stripeCount),
		byOwner:   make([]assocShard, stripeCount),
		byPurpose: make([]assocShard, stripeCount),
	}
	for i := 0; i < stripeCount; i++ {
		ix.meta[i].m = make(map[string]*Metadata)
		ix.byOwner[i].m = make(map[string]map[string]struct{})
		ix.byPurpose[i].m = make(map[string]map[string]struct{})
	}
	return ix
}

func (ix *metaIndex) metaShardFor(key string) *metaShard {
	return &ix.meta[stripeIndex(key)]
}

func (sh *assocShard) add(name, key string) {
	if name == "" {
		return
	}
	sh.mu.Lock()
	set, ok := sh.m[name]
	if !ok {
		set = make(map[string]struct{})
		sh.m[name] = set
	}
	set[key] = struct{}{}
	sh.mu.Unlock()
}

func (sh *assocShard) remove(name, key string) {
	sh.mu.Lock()
	if set, ok := sh.m[name]; ok {
		delete(set, key)
		if len(set) == 0 {
			delete(sh.m, name)
		}
	}
	sh.mu.Unlock()
}

// keys returns the member keys of name's set, in unspecified order.
func (sh *assocShard) keys(name string) []string {
	sh.mu.Lock()
	set := sh.m[name]
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sh.mu.Unlock()
	return out
}

func (ix *metaIndex) put(key string, m *Metadata) {
	ms := ix.metaShardFor(key)
	ms.mu.Lock()
	old := ms.m[key]
	ms.m[key] = m
	ms.mu.Unlock()
	if old == nil || old.Owner != m.Owner {
		if old != nil && old.Owner != "" {
			ix.byOwner[stripeIndex(old.Owner)].remove(old.Owner, key)
		}
		ix.byOwner[stripeIndex(m.Owner)].add(m.Owner, key)
	}
	if old != nil {
		if slices.Equal(old.Purposes, m.Purposes) {
			return
		}
		for _, p := range old.Purposes {
			ix.byPurpose[stripeIndex(p)].remove(p, key)
		}
	}
	for _, p := range m.Purposes {
		ix.byPurpose[stripeIndex(p)].add(p, key)
	}
}

// get returns key's metadata, nil when it has none. The value is shared
// with the index: read it, never write to it.
func (ix *metaIndex) get(key string) *Metadata {
	ms := ix.metaShardFor(key)
	ms.mu.Lock()
	m := ms.m[key]
	ms.mu.Unlock()
	return m
}

func (ix *metaIndex) del(key string) {
	ms := ix.metaShardFor(key)
	ms.mu.Lock()
	m := ms.m[key]
	delete(ms.m, key)
	ms.mu.Unlock()
	if m == nil {
		return
	}
	if m.Owner != "" {
		ix.byOwner[stripeIndex(m.Owner)].remove(m.Owner, key)
	}
	for _, p := range m.Purposes {
		ix.byPurpose[stripeIndex(p)].remove(p, key)
	}
}

// ownerKeys returns the keys owned by owner, in unspecified order.
func (ix *metaIndex) ownerKeys(owner string) []string {
	return ix.byOwner[stripeIndex(owner)].keys(owner)
}

// ownerKeyCount returns how many keys the index currently attributes to
// owner without materialising the key slice — the O(1) cardinality the
// crypto-shred fast path reports as its erasure count.
func (ix *metaIndex) ownerKeyCount(owner string) int {
	sh := &ix.byOwner[stripeIndex(owner)]
	sh.mu.Lock()
	n := len(sh.m[owner])
	sh.mu.Unlock()
	return n
}

// purposeKeys returns the keys whitelisted for purpose.
func (ix *metaIndex) purposeKeys(purpose string) []string {
	return ix.byPurpose[stripeIndex(purpose)].keys(purpose)
}

// rangeMeta calls fn for every (key, metadata) entry, one shard at a time.
// fn must not call back into the index for the same shard (it may read
// other entries via get). Entries added or removed concurrently may or may
// not be visited — callers that need a stable view hold Store.lockAll.
func (ix *metaIndex) rangeMeta(fn func(key string, m *Metadata) bool) {
	for i := range ix.meta {
		sh := &ix.meta[i]
		sh.mu.Lock()
		for k, m := range sh.m {
			if !fn(k, m) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// clear empties every shard in place. Unlike swapping in a fresh index,
// clearing keeps the *metaIndex pointer stable, so a live replication
// apply of FLUSHALL is safe against concurrent readers holding the store's
// ix field.
func (ix *metaIndex) clear() {
	for i := 0; i < stripeCount; i++ {
		ix.meta[i].mu.Lock()
		ix.meta[i].m = make(map[string]*Metadata)
		ix.meta[i].mu.Unlock()
		ix.byOwner[i].mu.Lock()
		ix.byOwner[i].m = make(map[string]map[string]struct{})
		ix.byOwner[i].mu.Unlock()
		ix.byPurpose[i].mu.Lock()
		ix.byPurpose[i].m = make(map[string]map[string]struct{})
		ix.byPurpose[i].mu.Unlock()
	}
}

func (ix *metaIndex) len() int {
	n := 0
	for i := range ix.meta {
		ix.meta[i].mu.Lock()
		n += len(ix.meta[i].m)
		ix.meta[i].mu.Unlock()
	}
	return n
}
