package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
	"gdprstore/internal/cryptoutil"
)

// Tests for O(1) erasure via crypto-shredding: the FORGETUSER fast path
// destroys the owner's key and returns; dead ciphertext is invisible to
// every read path immediately and reclaimed physically by the lazy-delete
// sweep.

func erasureCfg(mutate func(*Config)) Config {
	cfg := Config{
		Compliant:  true,
		Capability: CapabilityPartial,
		Envelope:   true,
		MasterKey:  bytes.Repeat([]byte{0x5a}, 32),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func putOwnerKeys(t *testing.T, s *Store, owner string, n int) []string {
	t.Helper()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s:rec%03d", owner, i)
		keys[i] = k
		err := s.Put(ctx, k, []byte("payload-"+k), PutOptions{
			Owner: owner, Purposes: []string{"service"},
		})
		if err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	return keys
}

// TestShredInvisibleBeforeSweep pins the tentpole contract: after the
// crypto-shred Forget, the owner's records are invisible to GET, SCAN
// visibility, GETUSER, ACCESS, EXPORTUSER, OWNERKEYS, KEYS-BY-PURPOSE and
// METADATA — even though the ciphertext physically remains until the sweep.
func TestShredInvisibleBeforeSweep(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	aliceKeys := putOwnerKeys(t, s, "alice", 8)
	bobKeys := putOwnerKeys(t, s, "bob", 4)

	n, err := s.Forget(Ctx{Actor: "alice"}, "alice")
	if err != nil || n != 8 {
		t.Fatalf("Forget = %d, %v; want 8, nil", n, err)
	}
	// No sweep has run: the ciphertext is still physically present (the
	// engine also holds alice's owner record), and Len no longer counts it.
	if got, held := s.Len(), s.Engine().Len(); got != 4 || held != 13 {
		t.Fatalf("after shred: Len = %d, engine holds %d; want 4 and 13 (lazy delete)", got, held)
	}

	for _, k := range aliceKeys {
		if _, err := s.Get(ctx, k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) after shred = %v, want ErrNotFound", k, err)
		}
		if s.KeyVisible(k) {
			t.Fatalf("KeyVisible(%s) = true after shred", k)
		}
		if _, err := s.Metadata(ctx, k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Metadata(%s) after shred = %v, want ErrNotFound", k, err)
		}
	}
	if recs, err := s.GetUser(Ctx{Actor: "alice"}, "alice"); err != nil || len(recs) != 0 {
		t.Fatalf("GetUser(alice) = %d recs, %v; want 0, nil", len(recs), err)
	}
	if rep, err := s.Access(Ctx{Actor: "alice"}, "alice"); err != nil || rep.RecordCount != 0 {
		t.Fatalf("Access(alice) = %d records, %v; want 0, nil", rep.RecordCount, err)
	}
	if keys, err := s.OwnerKeys(ctx, "alice"); err != nil || len(keys) != 0 {
		t.Fatalf("OwnerKeys(alice) = %v, %v; want empty", keys, err)
	}
	if keys, err := s.KeysByPurpose(ctx, "service"); err != nil || len(keys) != 4 {
		t.Fatalf("KeysByPurpose = %d keys, %v; want bob's 4", len(keys), err)
	}
	// Bob is untouched.
	for _, k := range bobKeys {
		if v, err := s.Get(ctx, k); err != nil || !bytes.HasPrefix(v, []byte("payload-")) {
			t.Fatalf("Get(%s) = %q, %v; bob's data damaged by alice's erasure", k, v, err)
		}
	}

	st := s.ErasureStats()
	if !st.Enabled || st.ShreddedOwners != 1 || st.PendingOwners != 1 || st.PendingRecords != 8 {
		t.Fatalf("ErasureStats before sweep = %+v", st)
	}

	sw := s.DrainErasure()
	if sw.Reclaimed != 8 || sw.OwnersDrained != 1 {
		t.Fatalf("DrainErasure = %+v; want 8 reclaimed, 1 drained", sw)
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("store len after sweep = %d, want 4", got)
	}
	if got := s.MetaCount(); got != 4 {
		t.Fatalf("meta count after sweep = %d, want 4", got)
	}
	st = s.ErasureStats()
	if st.PendingOwners != 0 || st.PendingRecords != 0 || st.Reclaimed != 8 || st.OwnersDrained != 1 {
		t.Fatalf("ErasureStats after sweep = %+v", st)
	}
	if !s.pendingRewrite.Load() {
		t.Fatal("sweep reclamation did not owe an AOF compaction")
	}
}

// FORGETUSER reports the records it erased: not those expiry reaped before
// it. The count was the owner's index set, which kept a reaped key until the
// next MAINTAIN, so the reply, the trail's erased= and the sweep's pending
// records all said 4 here.
func TestForgetCountsOnlyUnexpiredRecords(t *testing.T) {
	for _, envelope := range []bool{true, false} {
		t.Run(fmt.Sprintf("envelope=%v", envelope), func(t *testing.T) {
			vc := clock.NewVirtual(time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC))
			s, err := Open(erasureCfg(func(c *Config) {
				c.Envelope, c.Clock, c.AuditEnabled = envelope, vc, true
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := Ctx{Actor: "app", Purpose: "service"}
			for i, ttl := range []time.Duration{time.Second, time.Hour, time.Second, time.Hour} {
				if err := s.Put(ctx, fmt.Sprintf("alice:%d", i), []byte("v"), PutOptions{Owner: "alice", TTL: ttl}); err != nil {
					t.Fatal(err)
				}
			}
			vc.Advance(2 * time.Second)
			if st := s.ExpiryCycle(); st.Expired != 2 {
				t.Fatalf("expiry cycle reaped %d records, want 2", st.Expired)
			}
			if n := s.MetaCount(); n != 2 {
				t.Fatalf("MetaCount after expiry = %d, want 2", n)
			}
			n, err := s.Forget(Ctx{Actor: "alice"}, "alice")
			if err != nil || n != 2 {
				t.Fatalf("Forget = %d, %v; want erased=2", n, err)
			}
			recs, err := s.Trail().Query(auditOpFilter("FORGETUSER"))
			if err != nil || len(recs) != 1 || !strings.HasPrefix(recs[0].Detail, "erased=2") {
				t.Fatalf("FORGETUSER trail records %+v, %v; want one with erased=2", recs, err)
			}
			if st := s.ErasureStats(); envelope && st.PendingRecords != 2 {
				t.Fatalf("pending records after the shred = %d, want 2", st.PendingRecords)
			}
		})
	}
}

// TestErasureSweepBudget pins that one cycle deletes at most
// ErasureSweepBudget records and that repeated cycles converge.
func TestErasureSweepBudget(t *testing.T) {
	s, err := Open(erasureCfg(func(c *Config) { c.ErasureSweepBudget = 3 }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putOwnerKeys(t, s, "alice", 10)
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	st := s.ErasureSweepCycle()
	if st.Reclaimed != 3 || st.OwnersDrained != 0 {
		t.Fatalf("first budgeted cycle = %+v; want 3 reclaimed, 0 drained", st)
	}
	total := st.Reclaimed
	for cycles := 1; total < 10 || s.ErasureStats().PendingOwners > 0; cycles++ {
		if cycles > 10 {
			t.Fatalf("sweep did not converge: reclaimed %d of 10", total)
		}
		st = s.ErasureSweepCycle()
		if st.Reclaimed > 3 {
			t.Fatalf("cycle exceeded budget: %+v", st)
		}
		total += st.Reclaimed
	}
	if total != 10 || s.Len() != 0 {
		t.Fatalf("converged at reclaimed=%d len=%d; want 10, 0", total, s.Len())
	}
}

func erasureAOFCfg(path string, vc *clock.Virtual, budget int) Config {
	return erasureCfg(func(c *Config) {
		c.AOFPath = path
		c.AOFSync = Ptr(aof.SyncNo)
		c.Clock = vc
		c.ErasureSweepBudget = budget
	})
}

// TestCrashMidSweepReplay extends the crash matrix to the sweep: a crash
// after the shred but mid-reclamation must replay to a store that — once
// both sides finish sweeping — matches the uninterrupted one exactly.
func TestCrashMidSweepReplay(t *testing.T) {
	dir := t.TempDir()
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	path := filepath.Join(dir, "live.aof")
	live, err := Open(erasureAOFCfg(path, vc, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	putOwnerKeys(t, live, "alice", 8)
	putOwnerKeys(t, live, "bob", 3)
	if _, err := live.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	live.ErasureSweepCycle() // partial: 2 of 8 DELs journaled, then "crash"
	if err := live.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	killPath := filepath.Join(t.TempDir(), "crash.aof")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(killPath, b, 0o600); err != nil {
		t.Fatal(err)
	}
	copyFile(t, path+".keys", killPath+".keys")

	re, err := Open(erasureAOFCfg(killPath, vc, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Replay must rediscover the interrupted sweep.
	if st := re.ErasureStats(); st.PendingOwners != 1 || st.PendingRecords != 6 {
		t.Fatalf("replayed erasure state = %+v; want 1 pending owner, 6 records", st)
	}
	// Dead residue stays invisible on the replayed store too.
	if _, err := re.Get(Ctx{Actor: "app"}, "alice:rec005"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replayed dead record visible: %v", err)
	}

	live.DrainErasure()
	re.DrainErasure()
	want := crashDump(t, live)
	got := crashDump(t, re)
	if got != want {
		t.Fatalf("post-sweep states diverged\n--- live ---\n%s--- replayed ---\n%s", want, got)
	}
	if l, r := live.Len(), re.Len(); l != 3 || r != 3 {
		t.Fatalf("post-sweep store lens = %d, %d; want 3, 3", l, r)
	}
}

// TestCompactionPurgesDeadCiphertext pins that an AOF rewrite drops
// shredded-but-unswept records: the replayed store has no residue and no
// pending sweep work.
func TestCompactionPurgesDeadCiphertext(t *testing.T) {
	dir := t.TempDir()
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	path := filepath.Join(dir, "c.aof")
	s, err := Open(erasureAOFCfg(path, vc, 4096))
	if err != nil {
		t.Fatal(err)
	}
	putOwnerKeys(t, s, "alice", 5)
	putOwnerKeys(t, s, "bob", 2)
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	// Compact with the sweep not yet run: the snapshot must filter the
	// dead records even though they are still in the engine.
	if err := s.Compact(Ctx{Actor: "admin"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re, err := Open(erasureAOFCfg(path, vc, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 2 {
		t.Fatalf("replay after compaction holds %d keys, want bob's 2", got)
	}
	if st := re.ErasureStats(); st.PendingOwners != 0 || st.ShreddedOwners != 1 {
		t.Fatalf("replayed state = %+v; want 0 pending, shred mark kept", st)
	}
	// Bob's data survived the compaction and still decrypts.
	if v, err := re.Get(Ctx{Actor: "app"}, "bob:rec000"); err != nil || !bytes.HasPrefix(v, []byte("payload-")) {
		t.Fatalf("bob after compaction = %q, %v", v, err)
	}
}

// TestBackgroundSweeper exercises the sweep duty of the maintenance loop:
// the goroutine drains a shredded owner on its own, and start/stop are
// idempotent.
func TestBackgroundSweeper(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putOwnerKeys(t, s, "alice", 32)
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	s.StartExpirer()
	s.StartExpirer() // idempotent
	if !s.ErasureStats().SweeperRunning {
		t.Fatal("sweeper not reported running")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.ErasureStats().PendingOwners > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background sweeper never drained: %+v", s.ErasureStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("store len after background sweep = %d", got)
	}
	s.StopExpirer()
	s.StopExpirer() // idempotent
	if s.ErasureStats().SweeperRunning {
		t.Fatal("sweeper still reported running after stop")
	}
}

// TestReplicaKeepsNoErasureBacklog: a replica does not sweep, so it keeps
// no pending set; the shredded owner's dead records wait for the primary's
// DELs, and promotion re-derives the set from what the replica still holds.
func TestReplicaKeepsNoErasureBacklog(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := attachReplica(t, s, s.Config())
	r.SetReplica(true)
	putOwnerKeys(t, s, "alice", 8)
	putOwnerKeys(t, s, "bob", 2)
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, s)
	if st := r.ErasureStats(); st.ShreddedOwners != 1 || st.PendingOwners != 0 || r.Len() != 10 {
		t.Fatalf("replica after shred = %+v, %d keys; want 1 shredded, 0 pending, 10 keys", st, r.Len())
	}
	r.SetReplica(false)
	if st := r.ErasureStats(); st.PendingOwners != 1 || st.PendingRecords != 8 {
		t.Fatalf("promoted = %+v; want alice's 8 dead records pending", st)
	}
	r.SetReplica(true)
	if st := r.ErasureStats(); st.PendingOwners != 0 {
		t.Fatalf("demoted again = %+v; want nothing pending", st)
	}
	s.DrainErasure()
	caughtUp(t, s)
	if n := r.Len(); n != 2 {
		t.Fatalf("replica holds %d keys after the primary's sweep, want bob's 2", n)
	}
	r.SetReplica(false)
	if st := r.ErasureStats(); st.PendingOwners != 0 {
		t.Fatalf("promoted after the DELs = %+v; want nothing pending", st)
	}
}

// TestErasureConcurrentStress hammers the shred/sweep/write paths
// concurrently; run under -race it pins the locking protocol (owner
// stripe → key stripe → erasureState leaf).
func TestErasureConcurrentStress(t *testing.T) {
	s, err := Open(erasureCfg(func(c *Config) { c.ErasureSweepBudget = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.StartExpirer()
	defer s.StopExpirer()

	// Each subject takes a few writes from every writer; the forgetter
	// erases the subjects in the same order, so writes and erasures of one
	// subject overlap.
	const iters, perSubject = 300, 4
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) { // writers
			defer wg.Done()
			ctx := Ctx{Actor: "app", Purpose: "service"}
			for i := 0; i < iters; i++ {
				owner := fmt.Sprintf("subj%d", i/perSubject)
				k := fmt.Sprintf("w%d:%d", g, i%32)
				// ErrErased once the owner is erased is expected.
				_ = s.Put(ctx, k, []byte("v"), PutOptions{Owner: owner, Purposes: []string{"service"}})
				_, _ = s.Get(ctx, k)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // forgetter
		defer wg.Done()
		for i := 0; i < iters/perSubject; i++ {
			owner := fmt.Sprintf("subj%d", i)
			_, _ = s.Forget(Ctx{Actor: owner}, owner)
		}
	}()
	wg.Add(1)
	go func() { // explicit sweeps racing the background loop's
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			s.ErasureSweepCycle()
			_ = s.ErasureStats()
		}
	}()
	// A second sweeper for the whole churn, as the loop's own duties, so
	// two sweeps always overlap whatever the loop's period.
	churned := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-churned:
				return
			default:
			}
			s.ExpiryCycle()
			s.ErasureSweepCycle()
		}
	}()
	wg.Wait()
	close(churned)
	<-swept
	// Everything still converges once the churn stops.
	s.DrainErasure()
	if st := s.ErasureStats(); st.PendingOwners != 0 {
		t.Fatalf("stress left pending owners: %+v", st)
	}
}

// TestCipherCacheForget: the keyring serves a hot owner's prepared cipher
// from its cache, and an acknowledged Forget ends that: the owner's records
// read as gone, no read or write builds or finds a cipher for them, and the
// owner gets no new key.
func TestCipherCacheForget(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	keys := putOwnerKeys(t, s, "alice", 8)
	for _, k := range keys {
		if _, err := s.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := s.keyring.CipherStats(); misses != 1 || hits != 15 {
		t.Fatalf("8 Puts and 8 Gets of one owner: cipher built %d times, cached %d, want 1 and 15", misses, hits)
	}
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, err := s.Get(ctx, k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get %s after Forget = %q, %v", k, v, err)
		}
	}
	if recs, err := s.GetUser(Ctx{Actor: "alice"}, "alice"); err != nil || len(recs) != 0 {
		t.Fatalf("GetUser after Forget = %d records, %v", len(recs), err)
	}
	if err := s.Put(ctx, keys[0], []byte("again"), PutOptions{Owner: "alice"}); !errors.Is(err, ErrErased) {
		t.Fatalf("Put for an erased owner = %v, want ErrErased", err)
	}
	if hits, misses := s.keyring.CipherStats(); misses != 1 || hits != 15 {
		t.Fatalf("reads and a write of an erased owner touched the cipher cache: built %d, cached %d", misses, hits)
	}
	if _, ok := s.keyring.KeyEpoch("alice"); ok {
		t.Fatal("the refused Put made the erased owner a key")
	}
}

// TestCipherCacheForgetDrill: four goroutines Put, Get and GetUser the
// current owner's records through the cached cipher while a fifth erases
// the owner, each time making the next owner current and rewriting a
// marker record under it with the number of the erasure it follows. A read
// that began after erasure n was acknowledged never returns a marker older
// than n, and nothing ever fails to open: a record is sealed by the key of
// the epoch it is stamped with. Run under -race.
func TestCipherCacheForgetDrill(t *testing.T) {
	s, err := Open(erasureCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	owner := func(n int64) string { return fmt.Sprintf("alice%d", n) }
	const marker, rounds, reads = "alice:marker", 150, 1000
	var acked atomic.Int64  // erasures acknowledged so far; owner(acked) is current
	var looped atomic.Int64 // passes the readers have made
	var stop atomic.Bool

	check := func(what string, floor int64, v []byte, err error) {
		switch {
		case errors.Is(err, cryptoutil.ErrCorrupt):
			t.Errorf("%s: %v: a record was sealed under a key other than its epoch's", what, err)
		case err != nil:
			// Erased, or not rewritten yet.
		default:
			if n, perr := strconv.ParseInt(string(v), 10, 64); perr != nil || n < floor {
				t.Errorf("%s began after erasure %d was acknowledged and returned marker %q", what, floor, v)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("alice:w%d", g)
			for ; !stop.Load(); looped.Add(1) {
				cur := owner(acked.Load())
				// ErrErased once cur is erased is expected.
				if err := s.Put(ctx, mine, []byte("0"), PutOptions{Owner: cur, Purposes: []string{"service"}}); err != nil && !errors.Is(err, ErrErased) {
					t.Error(err)
					return
				}
				_, err := s.Get(ctx, mine)
				check("Get "+mine, 0, []byte("0"), err)

				floor := acked.Load()
				v, err := s.Get(ctx, marker)
				check("Get", floor, v, err)

				floor = acked.Load()
				recs, err := s.GetUser(Ctx{Actor: cur}, cur)
				if err != nil {
					check("GetUser", floor, nil, err)
				}
				for _, r := range recs {
					if r.Key == marker {
						check("GetUser", floor, r.Value, nil)
					}
				}
			}
		}(g)
	}
	// At least so many erasures, and as many more as it takes for the
	// readers to have raced them.
	n := int64(1)
	for ; n <= rounds || looped.Load() < reads; n++ {
		if _, err := s.Forget(Ctx{Actor: owner(n - 1)}, owner(n-1)); err != nil {
			t.Fatal(err)
		}
		acked.Store(n)
		if err := s.Put(ctx, marker, []byte(strconv.FormatInt(n, 10)), PutOptions{Owner: owner(n), Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if hits, misses := s.keyring.CipherStats(); int64(misses) < n-1 || hits == 0 {
		t.Errorf("cipher built %d times over %d owners' keys, cached %d", misses, n-1, hits)
	}
}
