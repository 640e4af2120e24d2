package store

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"gdprstore/internal/clock"
)

// refModel is the oracle of TestDifferentialShard: the engine's layout
// before a key's value, deadline and record moved into one dict entry. It
// keeps Redis's two tables (dict, expires) and the records beside them the
// way the compliance layer kept its metadata, unsharded, with no expiry
// index, and implements each operation the way the engine then did:
// expireIfNeeded's probe of expires, then the probe of dict.
type refModel struct {
	clk     *clock.Virtual
	dict    map[string][]byte
	expires map[string]time.Time
	recs    map[string]*Record
}

func newRefModel(clk *clock.Virtual) *refModel {
	m := &refModel{clk: clk}
	m.flushAll()
	return m
}

func (m *refModel) flushAll() {
	m.dict = map[string][]byte{}
	m.expires = map[string]time.Time{}
	m.recs = map[string]*Record{}
}

func (m *refModel) remove(k string) {
	delete(m.dict, k)
	delete(m.recs, k)
	delete(m.expires, k)
}

// setRec gives k the record rec, none when nil.
func (m *refModel) setRec(k string, rec *Record) {
	if rec == nil {
		delete(m.recs, k)
	} else {
		m.recs[k] = rec
	}
}

func (m *refModel) due(k string) bool {
	t, ok := m.expires[k]
	return ok && !t.After(m.clk.Now())
}

// expireIfNeeded is lazy expiry: true if k was due and is now gone.
func (m *refModel) expireIfNeeded(k string) bool {
	if !m.due(k) {
		return false
	}
	m.remove(k)
	return true
}

func (m *refModel) set(k string, v []byte) {
	m.dict[k] = v
	delete(m.recs, k)
	delete(m.expires, k)
}

func (m *refModel) setAt(k string, v []byte, rec *Record, deadline time.Time) {
	m.dict[k] = v
	m.setRec(k, rec)
	if deadline.IsZero() {
		delete(m.expires, k)
	} else {
		m.expires[k] = deadline
	}
}

// setKeepTTL is Redis's: the dead key is expired first, so the new value
// does not inherit a deadline that has already passed.
func (m *refModel) setKeepTTL(k string, v []byte) {
	m.expireIfNeeded(k)
	m.dict[k] = v
	delete(m.recs, k)
}

func (m *refModel) get(k string) ([]byte, bool) {
	if m.expireIfNeeded(k) {
		return nil, false
	}
	v, ok := m.dict[k]
	return v, ok
}

func (m *refModel) lookup(k string) (Entry, bool) {
	v, ok := m.get(k)
	return Entry{Value: v, Record: m.recs[k], Deadline: m.expires[k]}, ok
}

func (m *refModel) ttl(k string) (time.Duration, TTLStatus) {
	if _, ok := m.get(k); !ok {
		return 0, TTLMissing
	}
	t, ok := m.expires[k]
	if !ok {
		return 0, TTLNone
	}
	return t.Sub(m.clk.Now()), TTLSet
}

func (m *refModel) del(k string) int {
	if _, ok := m.get(k); !ok {
		return 0
	}
	m.remove(k)
	return 1
}

func (m *refModel) expireAt(k string, deadline time.Time) bool {
	if _, ok := m.get(k); !ok {
		return false
	}
	if !deadline.After(m.clk.Now()) {
		m.remove(k)
	} else {
		m.expires[k] = deadline
	}
	return true
}

// holds reports whether k is live with record rec, lazily expiring it first.
func (m *refModel) holds(k string, rec *Record) bool {
	_, ok := m.get(k)
	return ok && m.recs[k] == rec
}

func (m *refModel) deleteIf(k string, rec *Record) bool {
	if !m.holds(k, rec) {
		return false
	}
	m.remove(k)
	return true
}

func (m *refModel) deleteIfValue(k string, val []byte) (deleted, live bool) {
	v, ok := m.get(k)
	if ok && bytes.Equal(v, val) {
		m.remove(k)
		return true, true
	}
	return false, ok
}

func (m *refModel) expireAtIf(k string, rec *Record, deadline time.Time) bool {
	return m.holds(k, rec) && m.expireAt(k, deadline)
}

func (m *refModel) persist(k string) bool {
	if _, ok := m.get(k); !ok {
		return false
	}
	_, had := m.expires[k]
	delete(m.expires, k)
	return had
}

func (m *refModel) retentionLag() (overdue int, oldest time.Duration) {
	now := m.clk.Now()
	for _, t := range m.expires {
		if !t.After(now) {
			overdue++
			oldest = max(oldest, now.Sub(t))
		}
	}
	return overdue, oldest
}

// snapshot renders the live keys the way SnapshotRecords hands them out.
func (m *refModel) snapshot() map[string]string {
	out := map[string]string{}
	for k, v := range m.dict {
		if m.due(k) {
			continue
		}
		out[k] = entryLine(Entry{Value: v, Record: m.recs[k], Deadline: m.expires[k]})
	}
	return out
}

// entryLine renders an entry, its record by the step that made it.
func entryLine(e Entry) string {
	rec := "-"
	if e.Record != nil {
		rec = fmt.Sprint(e.Record.Epoch)
	}
	if e.Deadline.IsZero() {
		return "SET " + string(e.Value) + " rec=" + rec
	}
	return "SETEX " + string(EncodeDeadline(e.Deadline)) + " " + string(e.Value) + " rec=" + rec
}

// checkSlots verifies the shard invariant: every key whose entry carries a
// deadline sits in its shard's deadline heap exactly once, at entry.slot,
// with that deadline; nothing else sits there; and no node is due before
// its parent.
func checkSlots(db *DB) error {
	for i, sh := range db.shards {
		sh.mu.Lock()
		err := checkShard(sh)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %v", i, err)
		}
	}
	return nil
}

// checkShard is checkSlots for one shard. Callers hold sh.mu.
func checkShard(sh *shard) error {
	h, withTTL := sh.expires, 0
	for k, e := range sh.dict {
		if e.deadline == 0 {
			continue
		}
		withTTL++
		if int(e.slot) >= len(h) || h[e.slot] != (expiryNode{e.deadline, k}) {
			return fmt.Errorf("%q has deadline %d and slot %d, which does not hold it", k, e.deadline, e.slot)
		}
	}
	// Each TTL'd key names a distinct slot that holds it, so equal counts
	// mean the heap holds those keys and nothing more.
	if withTTL != len(h) {
		return fmt.Errorf("%d keys carry a deadline, the heap holds %d", withTTL, len(h))
	}
	for j := 1; j < len(h); j++ {
		if p := (j - 1) / 2; h[j].deadline < h[p].deadline {
			return fmt.Errorf("slot %d (%q, %d) is due before its parent %d (%q, %d)", j, h[j].key, h[j].deadline, p, h[p].key, h[p].deadline)
		}
	}
	return nil
}

// TestDifferentialShard drives the engine and the two-table oracle with one
// seeded random history (writes of every kind, TTL edits, deletes, the
// conditional operations on a record or bytes that are sometimes stale,
// flushes, clock advances, expiry cycles) and compares everything observable
// after every step, under each strategy. The engine's journal feeds the
// oracle the one thing it cannot predict (which due keys a probabilistic
// cycle drew) and is replayed at the end, records included.
//
// Every write carries a record token, none for the engine's plain writes,
// and the records OnRecord reported, replayed in order, must be exactly the
// oracle's after every step: the one-table promise that no record outlives
// its key, through lazy reaps, each strategy's cycle, FLUSHALL, Restore,
// SetKeepTTL, Del and the conditional operations. Reaping without telling
// the observer (the report dropped from reapLocked) fails all six runs,
// each by step 81; a conditional operation that skips its compare fails at
// its first stale one.
func TestDifferentialShard(t *testing.T) {
	for _, strategy := range []ExpiryStrategy{ExpiryLazyProbabilistic, ExpiryHeap} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", strategy, seed), func(t *testing.T) {
				runDifferential(t, seed, strategy)
			})
		}
	}
}

func runDifferential(t *testing.T, seed int64, strategy ExpiryStrategy) {
	const steps, universe = 1500, 48
	rnd := rand.New(rand.NewSource(seed))
	start := time.Unix(1_600_000_000, 0)
	vc := clock.NewVirtual(start)
	db := New(Options{Clock: vc, Seed: seed, Strategy: strategy, Shards: 4})
	ref := newRefModel(vc)

	seen := map[string]*Record{}
	db.OnRecord(func(k string, old, new *Record) {
		if seen[k] != old {
			t.Errorf("record of %s reported replaced from %v, last reported %v", k, old, seen[k])
		}
		if new == nil {
			delete(seen, k)
		} else {
			seen[k] = new
		}
	})

	var log []journalRec
	db.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
		cp := make([][]byte, len(args))
		for i, a := range args {
			cp[i] = bytes.Clone(a)
		}
		log = append(log, journalRec{name: name, args: cp})
		return nil
	}))

	key := func() string { return fmt.Sprintf("key:%d", rnd.Intn(universe)) }
	val := func(step int) []byte { return []byte(fmt.Sprintf("v%d", step)) }
	ttl := func() time.Duration { return time.Duration(1+rnd.Intn(90_000)) * time.Millisecond }
	// checked is what a conditional operation's caller read of k: mostly
	// what k holds, sometimes a record or bytes it no longer does.
	checked := func(k string, stale *Record) *Record {
		if rnd.Intn(3) > 0 {
			return ref.recs[k]
		}
		return stale
	}
	for step := 0; step < steps; step++ {
		tok := &Record{Epoch: uint64(step)}
		epoch := []byte(fmt.Sprint(step))
		op := rnd.Intn(112)
		desc := ""
		switch {
		case op < 12:
			k, v := key(), val(step)
			desc = "Set " + k
			db.Set(k, v)
			ref.set(k, v)
		case op < 30:
			k, v, d := key(), val(step), ttl()
			desc = fmt.Sprintf("SetEX %s %v", k, d)
			db.SetEX(k, v, d)
			ref.setAt(k, v, nil, vc.Now().Add(d))
		case op < 38:
			k, v := key(), val(step)
			desc = "SetKeepTTL " + k
			db.SetKeepTTL(k, v)
			ref.setKeepTTL(k, v)
		case op < 45:
			// One or two pairs under one record and one deadline (sometimes
			// none), as a compliant Put and PutBatch journal them.
			keys, vals := []string{key()}, [][]byte{val(step)}
			if k2 := key(); rnd.Intn(3) == 0 && k2 != keys[0] {
				keys, vals = append(keys, k2), append(vals, val(step))
			}
			var deadline time.Time
			if rnd.Intn(5) > 0 {
				deadline = vc.Now().Add(ttl())
			}
			desc = fmt.Sprintf("SetRecorded %v %v", keys, deadline)
			if err := db.SetRecorded(keys, vals, tok, deadline, "REC", EncodeDeadline(deadline), epoch); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				ref.setAt(k, vals[i], tok, deadline)
			}
		case op < 48:
			// A replayed pair: installed as-is, whatever the key held, and
			// not journaled, so the log gets the record it replays.
			k, v := key(), val(step)
			var deadline time.Time
			if rnd.Intn(3) > 0 {
				deadline = vc.Now().Add(ttl() - 10*time.Second)
			}
			desc = fmt.Sprintf("Restore %s %v", k, deadline)
			db.Restore(k, v, tok, deadline)
			ref.setAt(k, v, tok, deadline)
			log = append(log, journalRec{name: "REC", args: [][]byte{EncodeDeadline(deadline), epoch, []byte(k), v}})
		case op < 58:
			// Sometimes already in the past: ExpireAt then deletes.
			k, deadline := key(), vc.Now().Add(ttl()-20*time.Second)
			desc = fmt.Sprintf("ExpireAt %s %v", k, deadline)
			if got, want := db.ExpireAt(k, deadline), ref.expireAt(k, deadline); got != want {
				t.Fatalf("step %d %s = %v, oracle %v", step, desc, got, want)
			}
		case op < 64:
			k := key()
			desc = "Persist " + k
			if got, want := db.Persist(k), ref.persist(k); got != want {
				t.Fatalf("step %d %s = %v, oracle %v", step, desc, got, want)
			}
		case op < 74:
			k := key()
			desc = "Del " + k
			if got, want := db.Del(k), ref.del(k); got != want {
				t.Fatalf("step %d %s = %d, oracle %d", step, desc, got, want)
			}
		case op < 75:
			desc = "FlushAll"
			db.FlushAll()
			ref.flushAll()
		case op < 78:
			k := key()
			rec := checked(k, tok)
			desc = fmt.Sprintf("DeleteIf %s %v", k, rec)
			if got, want := db.DeleteIf(k, rec), ref.deleteIf(k, rec); got != want {
				t.Fatalf("step %d %s = %v, oracle %v", step, desc, got, want)
			}
		case op < 80:
			k := key()
			v := ref.dict[k]
			if rnd.Intn(3) == 0 {
				v = val(step)
			}
			desc = fmt.Sprintf("DeleteIfValue %s %s", k, v)
			deleted, live := db.DeleteIfValue(k, v)
			if wd, wl := ref.deleteIfValue(k, v); deleted != wd || live != wl {
				t.Fatalf("step %d %s = %v %v, oracle %v %v", step, desc, deleted, live, wd, wl)
			}
		case op < 87:
			// Sometimes already in the past: ExpireAtIf then deletes.
			k, deadline := key(), vc.Now().Add(ttl()-20*time.Second)
			rec := checked(k, tok)
			desc = fmt.Sprintf("ExpireAtIf %s %v %v", k, rec, deadline)
			got, err := db.ExpireAtIf(k, rec, deadline)
			if want := ref.expireAtIf(k, rec, deadline); err != nil || got != want {
				t.Fatalf("step %d %s = %v %v, oracle %v", step, desc, got, err, want)
			}
		case op < 100:
			d := time.Duration(rnd.Intn(20_000)) * time.Millisecond
			desc = fmt.Sprintf("Advance %v", d)
			vc.Advance(d)
		default:
			desc = "ActiveExpireCycle under " + strategy.String()
			before := len(log)
			st := db.ActiveExpireCycle()
			for _, r := range log[before:] {
				k := string(r.args[0])
				if r.name != "DEL" || !ref.due(k) {
					t.Fatalf("step %d %s journaled %s %s, which the oracle does not hold overdue", step, desc, r.name, k)
				}
				ref.remove(k)
			}
			if st.Expired != len(log)-before {
				t.Fatalf("step %d %s reports %d expired, journaled %d", step, desc, st.Expired, len(log)-before)
			}
			if n, _ := ref.retentionLag(); n != 0 && strategy == ExpiryHeap {
				t.Fatalf("step %d %s left %d overdue keys", step, desc, n)
			}
		}

		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("step %d after %s: %s = %v, oracle %v", step, desc, what, got, want)
		}
		// What reading does not change first; Get and TTL, which expire
		// lazily on both sides, on a few keys only, so the cycles still find
		// overdue keys to reclaim.
		if got, want := db.RawLen(), len(ref.dict); got != want {
			fail("RawLen", got, want)
		}
		if got, want := db.ExpireLen(), len(ref.expires); got != want {
			fail("ExpireLen", got, want)
		}
		overdue, oldest := ref.retentionLag()
		if got := db.ExpiredUnreclaimed(); got != overdue {
			fail("ExpiredUnreclaimed", got, overdue)
		}
		if got, age := db.RetentionLag(); got != overdue || age != oldest {
			fail("RetentionLag", fmt.Sprint(got, age), fmt.Sprint(overdue, oldest))
		}
		if got, want := db.Len(), len(ref.dict)-overdue; got != want {
			fail("Len", got, want)
		}
		if !maps.Equal(seen, ref.recs) {
			fail("records reported", len(seen), len(ref.recs))
		}
		snap := map[string]string{}
		if err := db.SnapshotRecords(func(k string, e Entry) error {
			snap[k] = entryLine(e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(snap), fmt.Sprint(ref.snapshot()); got != want {
			fail("Snapshot", got, want)
		}
		if err := checkSlots(db); err != nil {
			t.Fatalf("step %d after %s: %v", step, desc, err)
		}
		for i := 0; i < 3; i++ {
			k := key()
			gd, gs := db.TTL(k)
			wd, ws := ref.ttl(k)
			if gd != wd || gs != ws {
				fail("TTL "+k, fmt.Sprint(gd, gs), fmt.Sprint(wd, ws))
			}
			ge, gok := db.Lookup(k)
			we, wok := ref.lookup(k)
			if gok != wok || (gok && entryLine(ge) != entryLine(we)) {
				fail("Lookup "+k, fmt.Sprintf("%q %v", entryLine(ge), gok), fmt.Sprintf("%q %v", entryLine(we), wok))
			}
		}
	}

	// The journal, replayed, rebuilds the same physical keyspace, records
	// included: every lazy or active expiry is in it as the DEL it amounted
	// to, ahead of whatever write found the key dead.
	fresh := New(Options{Clock: vc, Shards: 2})
	for _, r := range log {
		switch r.name {
		case "REC":
			deadline, err := DecodeDeadline(r.args[0])
			if err != nil {
				t.Fatal(err)
			}
			rec := &Record{Epoch: parseEpoch(t, r.args[1])}
			for i := 2; i+1 < len(r.args); i += 2 {
				fresh.Restore(string(r.args[i]), r.args[i+1], rec, deadline)
			}
		default:
			if err := fresh.Apply(r.name, r.args); err != nil {
				t.Fatal(err)
			}
		}
	}
	if live, got := dumpEntries(db), dumpEntries(fresh); got != live {
		t.Fatalf("replayed journal diverges from the live engine:\nlive   %s\nreplay %s", live, got)
	}
	if err := checkSlots(fresh); err != nil {
		t.Fatalf("replayed engine: %v", err)
	}
}

func parseEpoch(t *testing.T, b []byte) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// dumpEntries renders every key the shards physically hold, overdue ones
// included, with its record's token, in key order.
func dumpEntries(db *DB) string {
	m := map[string]string{}
	for _, sh := range db.shards {
		sh.mu.Lock()
		for k, e := range sh.dict {
			m[k] = entryLine(e.lend())
		}
		sh.mu.Unlock()
	}
	return fmt.Sprint(m)
}
