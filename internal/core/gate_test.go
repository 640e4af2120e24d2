package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

// Tests for the one lock layer of locks.go: a read hands the journal what it
// observed before it returns, Close and compaction wait out every call
// inside the gate, and a record journaled for one key never lands behind
// another subject's write of it.

// heldLeg is a journal leg that holds every AppendOp until it is released:
// the record being drained, and every record enqueued behind it, stays
// pending in the engine's group-commit queue, and so does every caller that
// flushes.
type heldLeg struct {
	entered        chan struct{} // closed by the first AppendOp
	open           chan struct{}
	enter, release func()
}

// holdJournal puts a held leg in front of s's log. A test that fails with
// the leg held still releases it, so the store can close.
func holdJournal(t *testing.T, s *Store) *heldLeg {
	l := &heldLeg{entered: make(chan struct{}), open: make(chan struct{})}
	l.enter = sync.OnceFunc(func() { close(l.entered) })
	l.release = sync.OnceFunc(func() { close(l.open) })
	t.Cleanup(l.release)
	var log store.Journal
	if s.log != nil {
		log = store.JournalFunc(s.log.Append)
	}
	s.db.SetJournal(store.NewMultiJournal(l, log))
	return l
}

func (l *heldLeg) AppendOp(string, ...[]byte) error {
	l.enter()
	<-l.open
	return nil
}

// async runs fn in a goroutine; the channel yields its error once it
// returns.
func async(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return done
}

// mustWait fails if done yields within d: the call returned while the
// journal still held something it had to wait for.
func mustWait(t *testing.T, what string, done <-chan error, d time.Duration) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) while the journal held a record it had to wait for", what, err)
	case <-time.After(d):
	}
}

// A read returns only after the engine has handed the journal every record
// it observed: a Get and a GetUser that see a value whose GREC is still
// pending, and a GetUser whose walk sees a deadline whose EXPIREAT is, wait
// for the journal. The last case is the walk's one hand-off at
// its end; the probes of the walk no longer flush one by one.
func TestReadsReturnAfterJournalHandOff(t *testing.T) {
	s := newFullStore(t, nil)
	opts := PutOptions{Owner: "alice"}
	for i := 0; i < 4; i++ {
		if err := s.Put(ctlCtx, fmt.Sprintf("alice:%d", i), []byte("v0"), opts); err != nil {
			t.Fatal(err)
		}
	}

	// A Put's GREC pending: the value is installed, the journal holds it.
	leg := holdJournal(t, s)
	put := async(func() error { return s.Put(ctlCtx, "alice:0", []byte("v1"), opts) })
	<-leg.entered
	var got []byte
	get := async(func() (err error) { got, err = s.Get(ctlCtx, "alice:0"); return err })
	var recs []UserRecord
	user := async(func() (err error) { recs, err = s.GetUser(ctlCtx, "alice"); return err })
	mustWait(t, "Get", get, 50*time.Millisecond)
	mustWait(t, "GetUser", user, 0)
	leg.release()
	for _, done := range []<-chan error{put, get, user} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "v1" || len(recs) != 4 || string(recs[0].Value) != "v1" {
		t.Fatalf("Get %q, GetUser %d records, first %q; want v1, 4, v1", got, len(recs), recs[0].Value)
	}

	// An Expire pending: it holds no owner stripe, so the walk runs beside
	// it and sees the new deadline.
	leg = holdJournal(t, s)
	exp := async(func() error { return s.Expire(ctlCtx, "alice:1", 2*time.Hour) })
	<-leg.entered
	user = async(func() (err error) { recs, err = s.GetUser(ctlCtx, "alice"); return err })
	mustWait(t, "GetUser", user, 50*time.Millisecond)
	leg.release()
	for _, done := range []<-chan error{exp, user} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if want := canonicalTime(vclock(s).Now().Add(2 * time.Hour)); !recs[1].Metadata.Expiry.Equal(want) {
		t.Fatalf("GetUser reports %s expiring %v, want %v", recs[1].Key, recs[1].Metadata.Expiry, want)
	}
}

// barrierCfg is a full-capability store with a durable log and trail that
// does not compact on delete, with the controller principal the tests act
// as.
func barrierCfg(dir string, vc *clock.Virtual) Config {
	cfg := EventualFull(filepath.Join(dir, "audit.log"))
	cfg.AOFPath = filepath.Join(dir, "gdpr.aof")
	cfg.AOFSync = Ptr(aof.SyncNo)
	cfg.Clock = vc
	cfg.DefaultTTL = 24 * time.Hour
	return cfg
}

func openBarrier(t *testing.T, dir string, vc *clock.Virtual) *Store {
	t.Helper()
	s, err := Open(barrierCfg(dir, vc))
	if err != nil {
		t.Fatal(err)
	}
	s.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	return s
}

// ack is one acknowledged call: the trail record it owes, and what it did
// to a key that the replayed store must show.
type ack struct {
	op, key, owner string
	wrote, deleted string // the key the call wrote or deleted, if any
}

// checkAcks reopens dir and checks that every acknowledged call left its
// trail record and its write or delete.
func checkAcks(t *testing.T, dir string, vc *clock.Virtual, acks []ack) {
	t.Helper()
	s := openBarrier(t, dir, vc)
	defer s.Close()
	// A keyed call's record names its key, an owner-scoped one's its owner.
	trail := map[string]bool{}
	if err := s.Trail().Scan(func(r audit.Record) error {
		if r.Outcome == audit.OutcomeOK {
			trail[r.Op+" "+r.Key] = true
			trail[r.Op+" @"+r.Owner] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		id := a.op + " " + a.key
		if a.owner != "" {
			id = a.op + " @" + a.owner
		}
		if !trail[id] {
			t.Errorf("acknowledged %s has no trail record after reopen", id)
		}
		if a.wrote != "" && !s.Engine().Exists(a.wrote) {
			t.Errorf("acknowledged %s of %s lost after reopen", a.op, a.wrote)
		}
		if a.deleted != "" && s.Engine().Exists(a.deleted) {
			t.Errorf("acknowledged %s of %s undone after reopen", a.op, a.deleted)
		}
	}
}

// Close waits out every call already through the gate, so nothing is
// acknowledged once Close has returned, and everything acknowledged is on
// the trail and in the log after a reopen. "held": one call of each kind
// parked in the journal while Close runs. "racing": Close lands amid a
// stream of calls.
func TestCloseWaitsOutCallsInFlight(t *testing.T) {
	calls := []struct {
		name string
		call func(s *Store) (ack, error)
	}{
		{"Get", func(s *Store) (ack, error) {
			_, err := s.Get(ctlCtx, "k0")
			return ack{op: "GET", key: "k0"}, err
		}},
		{"GetBatch", func(s *Store) (ack, error) {
			_, err := s.GetBatch(ctlCtx, []string{"k1", "k2"})
			return ack{op: "MGET", key: "k1"}, err
		}},
		{"GetUser", func(s *Store) (ack, error) {
			_, err := s.GetUser(ctlCtx, "alice")
			return ack{op: "GETUSER", owner: "alice"}, err
		}},
		{"Access", func(s *Store) (ack, error) {
			_, err := s.Access(ctlCtx, "alice")
			return ack{op: "GETUSER", owner: "alice"}, err
		}},
		{"Put", func(s *Store) (ack, error) {
			err := s.Put(ctlCtx, "new", []byte("v"), PutOptions{Owner: "alice"})
			return ack{op: "PUT", key: "new", wrote: "new"}, err
		}},
		{"Delete", func(s *Store) (ack, error) {
			err := s.Delete(ctlCtx, "k3")
			return ack{op: "DEL", key: "k3", deleted: "k3"}, err
		}},
	}
	seed := func(t *testing.T, s *Store) {
		for i := 0; i < 4; i++ {
			if err := s.Put(ctlCtx, fmt.Sprintf("k%d", i), []byte("v"), PutOptions{Owner: "alice"}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range calls {
		t.Run("held/"+c.name, func(t *testing.T) {
			dir, vc := t.TempDir(), clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
			s := openBarrier(t, dir, vc)
			seed(t, s)
			leg := holdJournal(t, s)
			// A raw engine write, behind no gate, parks the journal; the
			// call then waits in its first hand-off, inside the gate.
			go s.db.Set("parked", []byte("x"))
			<-leg.entered
			var a ack
			call := async(func() (err error) { a, err = c.call(s); return err })
			time.Sleep(20 * time.Millisecond)
			closed := async(s.Close)
			closedFirst := true
			select {
			case <-closed:
			case <-time.After(100 * time.Millisecond):
				closedFirst = false
			}
			leg.release()
			err := <-call
			if !closedFirst {
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case errors.Is(err, ErrClosed): // refused, not acknowledged
			case err != nil:
				t.Fatalf("%s: %v", c.name, err)
			case closedFirst:
				t.Fatalf("Close returned while %s was in flight, and %s then succeeded", c.name, c.name)
			default:
				checkAcks(t, dir, vc, []ack{a})
			}
		})
	}

	t.Run("racing", func(t *testing.T) {
		for round := 0; round < 8; round++ {
			dir, vc := t.TempDir(), clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
			s := openBarrier(t, dir, vc)
			seed(t, s)
			var closeReturned atomic.Bool
			var mu sync.Mutex
			var acks []ack
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(round*4 + g)))
					var mine []string
					for i := 0; ; i++ {
						after := closeReturned.Load()
						var a ack
						var err error
						// op 2 to 5 is one of the reads, calls[0:4].
						switch op := rng.Intn(6); {
						case op == 0 || len(mine) == 0:
							k := fmt.Sprintf("g%d:%d", g, i)
							err = s.Put(ctlCtx, k, []byte("v"), PutOptions{Owner: "alice"})
							a = ack{op: "PUT", key: k, wrote: k}
							if err == nil {
								mine = append(mine, k)
							}
						case op == 1:
							k := mine[len(mine)-1]
							mine = mine[:len(mine)-1]
							err = s.Delete(ctlCtx, k)
							a = ack{op: "DEL", key: k, deleted: k}
						default:
							a, err = calls[op-2].call(s)
						}
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							t.Errorf("%s: %v", a.op, err)
							return
						}
						if after {
							t.Errorf("%s %s%s succeeded after Close returned", a.op, a.key, a.owner)
							return
						}
						mu.Lock()
						acks = append(acks, a)
						mu.Unlock()
					}
				}(g)
			}
			time.Sleep(time.Duration(1+round) * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			closeReturned.Store(true)
			wg.Wait()
			// A key written and later deleted by the same goroutine owes the
			// delete, not the write.
			deleted := map[string]bool{}
			for _, a := range acks {
				if a.deleted != "" {
					deleted[a.deleted] = true
				}
			}
			for i := range acks {
				if deleted[acks[i].wrote] {
					acks[i].wrote = ""
				}
			}
			checkAcks(t, dir, vc, acks)
		}
	})
}

// Deletes racing AOF compactions: a rewrite drops whatever the log takes
// in its window, so a delete acknowledged there would come back after a
// restart unless the rewrite waits it out at the gate.
func TestDeleteRacingCompactStaysDeleted(t *testing.T) {
	dir, vc := t.TempDir(), clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
	s := openBarrier(t, dir, vc)
	const n = 2000
	entries := make([]BatchEntry, n)
	for i := range entries {
		entries[i] = BatchEntry{Key: fmt.Sprintf("k%04d", i), Value: []byte("value")}
	}
	if err := s.PutBatch(ctlCtx, entries, PutOptions{Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	compactions := async(func() error {
		for i := 0; !done.Load() || i < 3; i++ {
			if err := s.Compact(ctlCtx); err != nil {
				return err
			}
		}
		return nil
	})
	var acks []ack
	for _, e := range entries[:n/2] {
		if err := s.Delete(ctlCtx, e.Key); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack{op: "DEL", key: e.Key, deleted: e.Key})
	}
	done.Store(true)
	if err := <-compactions; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkAcks(t, dir, vc, acks)
}

// Expire and Object/Unobject run on keys another subject re-Puts beside
// them. An Expire's EXPIREAT, journaled by the engine under the key's shard
// lock and only while the key still holds the record it checked, never
// lands behind the other subject's GREC, and an objection journals its
// owner record alone: replayed record by record, every GREC leaves each of
// its keys with a value its subject wrote, replay rebuilds the live store,
// and every key's metadata names the subject whose value it holds.
func TestReplayKeepsRecordsWithTheirWriter(t *testing.T) {
	dir, vc := t.TempDir(), clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
	cfg := crashCfg(filepath.Join(dir, "gdpr.aof"), vc, 16, aof.SyncNo)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Ctx{Actor: "app", Purpose: "service"}
	owners := []string{"alice", "bob"}
	const keys, rounds = 2, 2000
	key := func(i int) string { return fmt.Sprintf("shared:%d", i%keys) }
	put := func(owner string, i int) {
		k := key(i)
		if err := s.Put(ctx, k, recordValue(k, owner, int64(i)), PutOptions{Owner: owner, Purposes: []string{"service", "ads"}, TTL: time.Hour}); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < keys; i++ {
		put(owners[i%2], i)
	}
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}
	for _, o := range owners {
		run(func(i int) { put(o, i) })
	}
	run(func(i int) {
		if err := s.Expire(ctx, key(i*3), time.Duration(2+i%5)*time.Hour); err != nil && !errors.Is(err, ErrNotFound) {
			t.Error(err)
		}
	})
	run(func(i int) {
		o := owners[i%2]
		if err := s.setObjection(ctx, o, "ads", i%4 < 2); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()

	live := crashDump(t, s)
	for i := 0; i < keys; i++ {
		checkWriter(t, "live", s, key(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stepwise, err := Open(Config{Compliant: true, Capability: CapabilityPartial, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer stepwise.Close()
	n := 0
	if _, err := aof.Load(cfg.AOFPath, nil, func(name string, args [][]byte) error {
		n++
		err := stepwise.applyRecord(name, args)
		if err == nil && name == opRecord {
			for i := 1; i < len(args); i += 2 {
				if _, owned := ReservedKey(string(args[i])); !owned {
					checkWriter(t, fmt.Sprintf("journal record %d, %s", n, name), stepwise, string(args[i]))
				}
			}
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	replayed, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if got := crashDump(t, replayed); got != live {
		t.Fatalf("replay diverged from the live store\n--- live ---\n%s--- replayed ---\n%s", live, got)
	}
	for i := 0; i < keys; i++ {
		checkWriter(t, "replayed", replayed, key(i))
	}
}

// checkWriter fails unless k's metadata names the subject its value says
// wrote it.
func checkWriter(t *testing.T, which string, s *Store, k string) {
	t.Helper()
	v, ok := s.Engine().Get(k)
	m, err := s.Metadata(Ctx{Actor: "auditor"}, k)
	if !ok || err != nil {
		t.Fatalf("%s: %s missing (%v)", which, k, err)
	}
	if _, writer, _ := parseRecordValue(t, v); m.Owner != writer {
		t.Fatalf("%s: %s holds %s's value under %s's metadata", which, k, writer, m.Owner)
	}
}
