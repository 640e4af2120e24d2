package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/store"
)

// Tests for the one-pass owner-scoped read (collectOwner/walkKeys): it must
// answer exactly as the walk it replaced, within an allocation budget, and
// keep its promises while writers, expiry, re-owning and erasure run beside
// it without the owner stripe to hide behind.

// parentCollectOwner is the walk GetUser ran before the one-pass rewrite
// (commit 08471e7), kept as the oracle: owner stripe held throughout, a
// record probe and a Get per record, one keyring round trip for liveness
// and one for the key, one key schedule per Open, a deep copy of the
// metadata, its objections read from the owner record as every record's
// are now. The tests run it with no writer beside it, so it needs no lock
// per key.
func parentCollectOwner(s *Store, owner string) ([]UserRecord, error) {
	defer s.lockOwner(owner).Unlock()
	keys := s.ix.ownerKeys(owner)
	sort.Strings(keys)
	recs := make([]UserRecord, 0, len(keys))
	for _, k := range keys {
		e, ok := s.entryOf(k)
		if !ok || ownerOf(e.Record) != owner || s.recordDead(e.Record) {
			continue
		}
		v, ok := s.db.Get(k)
		if !ok {
			continue
		}
		if s.keyring != nil && owner != "" {
			dk, err := s.keyring.KeyFor(owner)
			if err != nil {
				return nil, fmt.Errorf("%w: %s", ErrErased, owner)
			}
			pt, err := cryptoutil.Open(dk, v, []byte(k))
			if err != nil {
				return nil, err
			}
			v = pt
		}
		m := metadataOf(e.Record, e.Deadline)
		m.Objections = s.Objections(owner)
		recs = append(recs, UserRecord{Key: k, Value: v, Metadata: m.clone()})
	}
	return recs, nil
}

// parentOwnerKeys is OwnerKeys as of the same commit.
func parentOwnerKeys(s *Store, owner string) []string {
	defer s.lockOwner(owner).Unlock()
	out := []string{}
	for _, k := range s.ix.ownerKeys(owner) {
		if e, ok := s.entryOf(k); ok && ownerOf(e.Record) == owner && !s.recordDead(e.Record) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func exportJSON(t *testing.T, owner string, recs []UserRecord) []byte {
	t.Helper()
	b, err := json.MarshalIndent(struct {
		Format  string       `json:"format"`
		Owner   string       `json:"owner"`
		Records []UserRecord `json:"records"`
	}{"gdprstore-export/v1", owner, recs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRightsReadsMatchParentWalk(t *testing.T) {
	ctx := Ctx{Actor: "app", Purpose: "service"}
	for _, envelope := range []bool{true, false} {
		for seed := int64(1); seed <= 12; seed++ {
			vc := clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
			s, err := Open(erasureCfg(func(c *Config) {
				c.Envelope = envelope
				c.Clock = vc
				c.ErasureSweepBudget = 3
			}))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			owners := []string{"o0", "o1", "o2", "o3", "o4"}
			owner := func() string { return owners[rng.Intn(len(owners))] }
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
			ttls := []time.Duration{time.Minute, 5 * time.Minute, time.Hour}
			// Errors are part of the history (a Put for an erased owner, an
			// Expire of a missing key); the two walks are compared on
			// whatever state results.
			for i := 0; i < 500; i++ {
				switch p := rng.Intn(100); {
				case p < 50: // the shared key pool makes re-owned keys
					_ = s.Put(ctx, key(), []byte(fmt.Sprintf("v%d", i)), PutOptions{
						Owner: owner(), Purposes: []string{"service", "ads"}[:1+rng.Intn(2)], TTL: ttls[rng.Intn(len(ttls))],
					})
				case p < 60: // expired keys whose metadata lingers
					vc.Advance(time.Duration(20+rng.Intn(100)) * time.Second)
				case p < 67: // dead-epoch residue (envelope) or eager deletion
					_, _ = s.Forget(ctx, owner())
				case p < 75: // a new owner in an old one's place, erased or not
					owners[rng.Intn(len(owners))] = fmt.Sprintf("o%d", 5+i)
				case p < 80:
					_ = s.Object(ctx, owner(), "ads")
				case p < 84:
					_ = s.Unobject(ctx, owner(), "ads")
				case p < 90:
					_ = s.Expire(ctx, key(), ttls[rng.Intn(len(ttls))])
				case p < 95:
					_ = s.Delete(ctx, key())
				default: // a budgeted, hence partial, sweep
					s.ErasureSweepCycle()
				}
			}
			for i, o := range owners {
				name := fmt.Sprintf("envelope=%v seed=%d owner=%s", envelope, seed, o)
				// Both walks reap expired keys; alternate which goes first
				// so neither can lean on the other's reaping.
				var want, got []UserRecord
				var wantKeys, gotKeys []string
				var gerr, werr error
				if i%2 == 0 {
					want, werr = parentCollectOwner(s, o)
					wantKeys = parentOwnerKeys(s, o)
				}
				got, gerr = s.GetUser(ctx, o)
				gotKeys, kerr := s.OwnerKeys(ctx, o)
				export, xerr := s.Export(ctx, o)
				if i%2 == 1 {
					want, werr = parentCollectOwner(s, o)
					wantKeys = parentOwnerKeys(s, o)
				}
				if gerr != nil || werr != nil || kerr != nil || xerr != nil {
					t.Fatalf("%s: errors %v / %v / %v / %v", name, gerr, werr, kerr, xerr)
				}
				if !reflect.DeepEqual(gotKeys, wantKeys) {
					t.Fatalf("%s: OwnerKeys %v, parent %v", name, gotKeys, wantKeys)
				}
				// Through JSON: nil and empty metadata slices are the same
				// answer, and it is the form EXPORTUSER ships.
				if g, w := exportJSON(t, o, got), exportJSON(t, o, want); !bytes.Equal(g, w) {
					t.Fatalf("%s: GetUser differs from the parent's walk\n got %s\nwant %s", name, g, w)
				} else if !bytes.Equal(export, w) {
					t.Fatalf("%s: Export differs from the parent's walk", name)
				}
			}
			s.Close()
		}
	}
}

// One Art. 15 read costs a constant number of allocations plus one value
// buffer per 32 KB: nothing per record (the parent paid seven).
func TestGetUserAllocBudget(t *testing.T) {
	allocs := func(recs int) float64 {
		s, err := Open(erasureCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := Ctx{Actor: "app", Purpose: "service"}
		val := bytes.Repeat([]byte("x"), 100)
		for i := 0; i < recs; i++ {
			if err := s.Put(ctx, fmt.Sprintf("alice:%04d", i), val, PutOptions{Owner: "alice", Purposes: []string{"service"}}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if got, err := s.GetUser(ctx, "alice"); err != nil || len(got) != recs {
				t.Fatalf("GetUser: %d records, %v", len(got), err)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	t.Logf("GetUser allocations: %.0f for 16 records, %.0f for 256", small, large)
	if small > 24 {
		t.Errorf("constant part: %.0f allocations for 16 records, budget 24", small)
	}
	if perRecord := (large - small) / 240; perRecord > 0.1 {
		t.Errorf("%.2f allocations per record (%.0f → %.0f), budget 0.1", perRecord, small, large)
	}
}

// The wire's view of an Art. 15 read (keys and values, no Metadata) costs a
// fixed number of allocations, whatever the owner's record count, as long as
// the values fit one chunk: 64 and 256 records of 100 B (128 B sealed, 32 KB
// in all) pay the same.
func TestUserValuesAllocBudget(t *testing.T) {
	allocs := func(recs int) float64 {
		s, err := Open(erasureCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := Ctx{Actor: "app", Purpose: "service"}
		val := bytes.Repeat([]byte("x"), 100)
		for i := 0; i < recs; i++ {
			if err := s.Put(ctx, fmt.Sprintf("alice:%04d", i), val, PutOptions{Owner: "alice", Purposes: []string{"service"}}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if keys, values, err := s.UserValues(ctx, "alice"); err != nil || len(keys) != recs || len(values) != recs {
				t.Fatalf("UserValues: %d keys, %d values, %v", len(keys), len(values), err)
			}
		})
	}
	small, large := allocs(64), allocs(256)
	t.Logf("UserValues allocations: %.0f for 64 records, %.0f for 256", small, large)
	if small != large {
		t.Errorf("UserValues: %.0f allocations for 64 records, %.0f for 256; want the same", small, large)
	}
	if large > 5 {
		t.Errorf("UserValues: %.0f allocations, budget 5", large)
	}
}

// An 8-key PutBatch, journaled, allocates nothing to group its keys by
// engine shard (a counting sort on the stack) and one array for all its
// per-shard GREC records, however many shards the keys touch (these eight
// touch eight of 16). Measured 26.
func TestPutBatchAllocBudget(t *testing.T) {
	s, err := Open(erasureCfg(func(c *Config) { c.AOFPath = filepath.Join(t.TempDir(), "store.aof") }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Key: fmt.Sprintf("alice:%04d", i), Value: bytes.Repeat([]byte("x"), 100)}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.PutBatch(ctx, entries, PutOptions{Owner: "alice", Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PutBatch allocations: %.0f for 8 keys", allocs)
	if allocs > 24 {
		t.Errorf("PutBatch: %.0f allocations for 8 keys, budget 24", allocs)
	}
}

// recordValue makes every value name its key, its owner and its write
// number, so a reader can tell whose it is and how fresh.
func recordValue(key, owner string, seq int64) []byte {
	return []byte(key + "|" + owner + "|" + strconv.FormatInt(seq, 10))
}

func parseRecordValue(t *testing.T, v []byte) (key, owner string, seq int64) {
	parts := strings.Split(string(v), "|")
	if len(parts) != 3 {
		t.Errorf("value %q is not one this test wrote", v)
		return "", "", -1
	}
	seq, _ = strconv.ParseInt(parts[2], 10, 64)
	return parts[0], parts[1], seq
}

// GETUSER beside PUT, EXPIRE and another owner re-PUTting shared keys, no
// owner stripe held across the walk. Never another owner's record; every
// value is one acknowledged for that key no earlier than the read began (or
// in flight during it); every key that is the owner's throughout is there.
func TestGetUserConcurrentWithWrites(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const private, shared = 48, 16
	privKey := func(i int) string { return fmt.Sprintf("alice:%02d", i) }
	sharedKey := func(i int) string { return fmt.Sprintf("shared:%02d", i) }
	// acked[i] is the last write number acknowledged for alice's private
	// key i, begun[i] the last one started; a read that runs between two
	// loads of them must see a write in that window.
	var acked, begun [private]atomic.Int64
	put := func(key, owner string, seq int64) {
		if err := s.Put(ctx, key, recordValue(key, owner, seq), PutOptions{Owner: owner, Purposes: []string{"service"}, TTL: time.Hour}); err != nil {
			t.Errorf("put %s for %s: %v", key, owner, err)
		}
	}
	for i := 0; i < private; i++ {
		put(privKey(i), "alice", 0)
	}
	for i := 0; i < shared; i++ {
		put(sharedKey(i), "alice", 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	background := func(fn func(n int64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
					fn(n)
				}
			}
		}()
	}
	background(func(n int64) { // alice's writer: one goroutine, so per-key writes are ordered
		i := int(n % private)
		begun[i].Store(n)
		put(privKey(i), "alice", n)
		acked[i].Store(n)
	})
	background(func(n int64) { // retention changes on alice's keys
		if err := s.Expire(ctx, privKey(int(n%private)), time.Duration(1+n%3)*time.Hour); err != nil {
			t.Errorf("expire: %v", err)
		}
	})
	background(func(n int64) { // bob and alice take the shared keys from each other
		owner := []string{"bob", "alice"}[n%2]
		put(sharedKey(int(n/2%shared)), owner, n)
	})

	for round := 0; round < 300; round++ {
		var lo [private]int64
		for i := range lo {
			lo[i] = acked[i].Load()
		}
		recs, err := s.GetUser(ctx, "alice")
		if err != nil {
			t.Fatalf("GetUser: %v", err)
		}
		seen := map[string]bool{}
		for _, r := range recs {
			key, owner, seq := parseRecordValue(t, r.Value)
			if r.Metadata.Owner != "alice" || owner != "alice" || key != r.Key {
				t.Fatalf("alice's report holds key %s with metadata owner %q and value %q", r.Key, r.Metadata.Owner, r.Value)
			}
			seen[r.Key] = true
			var i int
			if _, err := fmt.Sscanf(r.Key, "alice:%02d", &i); err != nil {
				continue // a shared key, hers at that moment
			}
			if hi := begun[i].Load(); seq < lo[i] || seq > hi {
				t.Fatalf("%s: write %d reported; %d was acknowledged before the read and %d is the latest begun", r.Key, seq, lo[i], hi)
			}
		}
		for i := 0; i < private; i++ {
			if !seen[privKey(i)] {
				t.Fatalf("round %d: %s, alice's throughout, is missing from her report (%d records)", round, privKey(i), len(recs))
			}
		}
		if !sort.SliceIsSorted(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key }) {
			t.Fatal("report not in key order")
		}
	}
	close(stop)
	wg.Wait()
}

// GETUSER racing FORGETUSER on the same owner: the answer is the full
// pre-erasure set or nothing, and once the erasure is acknowledged, nothing.
// Each round writes the same keys for a new owner over the erased one's
// residue.
func TestGetUserRacingForget(t *testing.T) {
	s, err := Open(erasureCfg(func(c *Config) { c.ErasureSweepBudget = 7 }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const recs = 96
	for round := 0; round < 40; round++ {
		carol := fmt.Sprintf("carol%d", round)
		for i := 0; i < recs; i++ {
			k := fmt.Sprintf("carol:%02d", i)
			if err := s.Put(ctx, k, recordValue(k, carol, int64(round)), PutOptions{Owner: carol, Purposes: []string{"service"}}); err != nil {
				t.Fatal(err)
			}
		}
		var forgotten atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for done := false; !done; {
					// Sampled first: if the erasure was already acknowledged
					// when the read began, the read must come back empty.
					done = forgotten.Load()
					got, err := s.GetUser(ctx, carol)
					if err != nil {
						t.Errorf("GetUser: %v", err)
						return
					}
					if len(got) != 0 && (done || len(got) != recs) {
						t.Errorf("round %d: %d of %d records reported (erasure acknowledged before the read: %v)", round, len(got), recs, done)
						return
					}
					for _, rec := range got {
						if _, _, seq := parseRecordValue(t, rec.Value); seq != int64(round) {
							t.Errorf("round %d: %s carries write %d, residue of an erased epoch", round, rec.Key, seq)
							return
						}
					}
				}
			}()
		}
		wg.Add(1)
		go func() { // the sweep reclaims residue of earlier rounds beside all this
			defer wg.Done()
			s.ErasureSweepCycle()
		}()
		if _, err := s.Forget(ctx, carol); err != nil {
			t.Fatal(err)
		}
		forgotten.Store(true)
		wg.Wait()
	}
}

// UNOBJECT used to filter a record's Objections in place, rewriting the
// backing array the indexed value and every copy handed out still pointed
// at; only the owner stripe, held across the readers' whole walk, kept that
// from being a data race. Readers no longer hold it.
func TestUnobjectDuringRightsReads(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	putOwnerKeys(t, s, "dave", 64)
	for _, p := range []string{"ads", "profiling", "research"} {
		if err := s.Object(ctx, "dave", p); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := []string{"ads", "profiling", "research"}[i%3]
			if err := s.Unobject(ctx, "dave", p); err != nil {
				t.Errorf("unobject: %v", err)
			}
			if err := s.Object(ctx, "dave", p); err != nil {
				t.Errorf("object: %v", err)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		recs, err := s.GetUser(ctx, "dave")
		if err != nil || len(recs) != 64 {
			t.Fatalf("GetUser: %d records, %v", len(recs), err)
		}
		rep, err := s.Access(ctx, "dave")
		if err != nil || rep.RecordCount != 64 {
			t.Fatalf("Access: %d records, %v", rep.RecordCount, err)
		}
		for _, r := range append(recs, rep.Records...) {
			// At most one of the three is withdrawn at any moment, and a
			// half-filtered slice would show a purpose twice.
			seen := map[string]bool{}
			for _, o := range r.Metadata.Objections {
				if seen[o] {
					t.Fatalf("%s: objections %v", r.Key, r.Metadata.Objections)
				}
				seen[o] = true
			}
			if len(seen) < 2 || len(seen) > 3 {
				t.Fatalf("%s: objections %v", r.Key, r.Metadata.Objections)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// engineShard is key's engine shard in s. The engine routes keys with the
// FNV-1a hash the owner stripes use (stripeIndex), masked to its shard
// count, which must not exceed stripeCount.
func engineShard(t *testing.T, s *Store, key string) uint32 {
	n := s.db.ShardCount()
	if n > stripeCount {
		t.Fatalf("%d engine shards, more than stripeIndex can route", n)
	}
	return stripeIndex(key) & uint32(n-1)
}

// The staged walk at and around its batch size (walkBatch = 64): owners of
// 1, 63, 64, 65, 128 and 129 keys, some of them deleted, expired or re-Put
// under another owner, the last key of a batch and the first of the next
// among them. Two more owners set the shape of a batch's probe: one whose
// 129 keys all live in one engine shard (one lock for the whole batch), and
// one whose 130 keys spread evenly over every shard (a lock per shard per
// batch). Each runs with and without envelope encryption on the default
// engine, and on a one-shard engine, where every owner is the first shape.
// Every owner-scoped read reports exactly the owner's live keys, ascending,
// with their values.
func TestWalkAtBatchBoundaries(t *testing.T) {
	for _, tc := range []struct {
		envelope bool
		shards   int
	}{{true, 0}, {false, 0}, {true, 1}} {
		vc := clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
		s, err := Open(erasureCfg(func(c *Config) { c.Envelope, c.Shards, c.Clock = tc.envelope, tc.shards, vc }))
		if err != nil {
			t.Fatal(err)
		}
		ctx := Ctx{Actor: "app", Purpose: "service"}
		put := func(k, owner string, ttl time.Duration) {
			if err := s.Put(ctx, k, recordValue(k, owner, 0), PutOptions{Owner: owner, Purposes: []string{"service"}, TTL: ttl}); err != nil {
				t.Fatal(err)
			}
		}
		owners := map[string][]string{}
		var names []string
		for _, n := range []int{1, 63, 64, 65, 128, 129} {
			owner := fmt.Sprintf("o%d", n)
			for i := 0; i < n; i++ {
				owners[owner] = append(owners[owner], fmt.Sprintf("%s:%03d", owner, i))
			}
			names = append(names, owner)
		}
		shards := s.db.ShardCount()
		perShard := make([]int, shards)
		for i := 0; len(owners["oneshard"]) < 129 || len(owners["spread"]) < 130; i++ {
			if k := fmt.Sprintf("oneshard:%04d", i); len(owners["oneshard"]) < 129 && engineShard(t, s, k) == 0 {
				owners["oneshard"] = append(owners["oneshard"], k)
			}
			k := fmt.Sprintf("spread:%04d", i)
			if sh := engineShard(t, s, k); len(owners["spread"]) < 130 && perShard[sh] < (130+shards-1)/shards {
				owners["spread"] = append(owners["spread"], k)
				perShard[sh]++
			}
		}
		if slices.Contains(perShard, 0) {
			t.Fatalf("spread's keys miss a shard: %v", perShard)
		}
		names = append(names, "oneshard", "spread")
		live := map[string][]string{}
		for _, owner := range names {
			keys := owners[owner]
			n := len(keys)
			// Written in reverse: the index, not the write order, sorts.
			for i := n - 1; i >= 0; i-- {
				ttl := time.Hour
				if n > 1 && i%5 == 1 {
					ttl = time.Minute
				}
				put(keys[i], owner, ttl)
			}
			for i, k := range keys {
				switch {
				case n == 1: // the lone key stays
					live[owner] = append(live[owner], k)
				case i%5 == 1: // expires below
				case i%7 == 3 || i == 64:
					if err := s.Delete(ctx, k); err != nil {
						t.Fatal(err)
					}
				case i%11 == 10 || i == 63:
					put(k, "other", time.Hour)
				default:
					live[owner] = append(live[owner], k)
				}
			}
		}
		vc.Advance(2 * time.Minute)
		for _, owner := range names {
			name := fmt.Sprintf("envelope=%v shards=%d owner=%s", tc.envelope, shards, owner)
			want := live[owner]
			recs, err := s.GetUser(ctx, owner)
			if err != nil {
				t.Fatalf("%s: GetUser: %v", name, err)
			}
			keys, values, err := s.UserValues(ctx, owner)
			if err != nil {
				t.Fatalf("%s: UserValues: %v", name, err)
			}
			owned, err := s.OwnerKeys(ctx, owner)
			if err != nil {
				t.Fatalf("%s: OwnerKeys: %v", name, err)
			}
			got := make([]string, len(recs))
			for i, r := range recs {
				got[i] = r.Key
				if !bytes.Equal(r.Value, recordValue(r.Key, owner, 0)) {
					t.Fatalf("%s: GetUser %s = %q", name, r.Key, r.Value)
				}
			}
			for i, k := range keys {
				if !bytes.Equal(values[i], recordValue(k, owner, 0)) {
					t.Fatalf("%s: UserValues %s = %q", name, k, values[i])
				}
			}
			for what, g := range map[string][]string{"GetUser": got, "UserValues": keys, "OwnerKeys": owned} {
				if !reflect.DeepEqual(g, want) {
					t.Fatalf("%s: %s reports %v, want %v", name, what, g, want)
				}
			}
		}
		s.Close()
	}
}

// A walk whose fn stops at the k-th record visits no record after it, and
// hands the journal what it enqueued exactly once, at its end: with the
// journal held, the walk reaches its k-th record without waiting (no probe
// or batch flushes on the way) and then waits for the journal before it
// returns.
func TestWalkKeysStopsAndFlushesOnce(t *testing.T) {
	const owner, n = "carol", 129
	for _, k := range []int{1, 63, 64, 65, 128, 129, 130} {
		s, err := Open(erasureCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		putOwnerKeys(t, s, owner, n)
		leg := holdJournal(t, s)
		go s.db.Set("parked", []byte("x"))
		<-leg.entered
		var visited []string
		reached := make(chan struct{})
		done := make(chan bool, 1)
		go func() {
			done <- s.walkKeys(owner, s.ix.ownerKeys(owner), true, func(key string, _ store.Entry) bool {
				visited = append(visited, key)
				if len(visited) == min(k, n) {
					close(reached)
				}
				return len(visited) < k
			})
		}()
		select {
		case <-reached:
		case <-time.After(10 * time.Second):
			t.Fatalf("k=%d: the walk waited for the journal before its end (%d records visited)", k, len(visited))
		}
		select {
		case <-done:
			t.Fatalf("k=%d: the walk returned without handing off to the journal", k)
		case <-time.After(20 * time.Millisecond):
		}
		leg.release()
		if complete := <-done; complete != (k > n) {
			t.Fatalf("k=%d: walkKeys reported complete=%v", k, complete)
		}
		if want := s.ix.ownerKeys(owner)[:min(k, n)]; !reflect.DeepEqual(visited, want) {
			t.Fatalf("k=%d: visited %d records, want the first %d", k, len(visited), len(want))
		}
		s.Close()
	}
}

// BenchmarkGetUser times one Art. 15 read of a 256-record owner among 200
// (100 B values, envelope encryption on), the shape of the repo
// benchmark's rights-under-write reads, round-robin over the owners so each
// read finds its owner's records cold in cache. GetUser builds the records
// with Metadata, as Access and Export use them; UserValues is the keys and
// values the wire's GETUSER sends. contended is UserValues while one
// goroutine keeps Putting another owner's records to the same store, as the
// write client of rights-under-write does: the probes then share the engine
// shards' locks and the caches with a writer, which the other two do not
// show.
func BenchmarkGetUser(b *testing.B) {
	const owners, perOwner = 200, 256
	s, err := Open(erasureCfg(nil))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	val := bytes.Repeat([]byte("v"), 100)
	names := make([]string, owners)
	for o := range names {
		names[o] = fmt.Sprintf("user%03d", o)
		for i := 0; i < perOwner; i++ {
			if err := s.Put(ctx, fmt.Sprintf("%s:rec%03d", names[o], i), val, PutOptions{Owner: names[o], Purposes: []string{"service"}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("GetUser", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if recs, err := s.GetUser(ctx, names[i%owners]); err != nil || len(recs) != perOwner {
				b.Fatalf("GetUser: %d records, %v", len(recs), err)
			}
		}
	})
	userValues := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if keys, _, err := s.UserValues(ctx, names[i%owners]); err != nil || len(keys) != perOwner {
				b.Fatalf("UserValues: %d keys, %v", len(keys), err)
			}
		}
	}
	b.Run("UserValues", func(b *testing.B) {
		b.ReportAllocs()
		userValues(b)
	})
	b.Run("contended", func(b *testing.B) {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			opts := PutOptions{Owner: "writer", Purposes: []string{"service"}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(ctx, "writer:rec"+strconv.Itoa(i%10000), val, opts); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		userValues(b)
		b.StopTimer()
		close(stop)
		<-stopped
	})
}
