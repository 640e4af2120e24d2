package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/store"
	"gdprstore/internal/testutil"
)

// TestConcurrentMixedOperations hammers the compliance layer from many
// goroutines and then checks the core consistency invariants:
//
//  1. every key in an owner's index set holds a record of that owner;
//  2. every record the engine holds is in its owner's index set, and
//     MetaCount counts exactly those records;
//  3. forgotten owners have no surviving records;
//  4. KeysByPurpose lists, ascending, exactly the keys whose live record
//     permits the purpose.
func TestConcurrentMixedOperations(t *testing.T) {
	s := newFullStore(t, nil)
	const owners = 8
	for i := 0; i < owners; i++ {
		s.ACL().AddPrincipal(acl.Principal{ID: fmt.Sprintf("owner%d", i), Role: acl.RoleSubject})
	}

	var wg sync.WaitGroup
	for g := 0; g < owners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := fmt.Sprintf("owner%d", g)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("pd:%s:%d", owner, i%20)
				switch i % 7 {
				case 0, 1, 2:
					if err := s.Put(ctlCtx, key, []byte("v"), PutOptions{
						Owner: owner, Purposes: []string{"p"}, TTL: time.Hour,
					}); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 3, 4:
					s.Get(Ctx{Actor: "controller", Purpose: "p"}, key)
				case 5:
					s.Delete(ctlCtx, key)
				case 6:
					if i%49 == 6 {
						s.Object(Ctx{Actor: owner}, owner, "ads")
						s.Unobject(Ctx{Actor: owner}, owner, "ads")
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Invariant 1: no index entry outlives its record.
	now := vclock(s).Now()
	for i := 0; i < owners; i++ {
		owner := fmt.Sprintf("owner%d", i)
		for _, k := range s.ix.ownerKeys(nil, owner) {
			if e, ok := s.db.Peek(k, now); !ok || ownerOf(e.Record) != owner {
				t.Fatalf("owner index inconsistent: %q -> %q", owner, k)
			}
		}
	}
	// Invariant 2: every record is indexed under its owner, and counted.
	records := 0
	live := map[string]*store.Policy{}
	if err := s.db.SnapshotRecords(func(k string, e store.Entry) error {
		if e.Record != nil {
			records++
			if !slices.Contains(s.ix.ownerKeys(nil, e.Record.Policy.Owner), k) {
				t.Errorf("key %q (owner %q) missing from owner index", k, e.Record.Policy.Owner)
			}
			if !s.recordDead(e.Record) {
				live[k] = e.Record.Policy
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var permitted []string
	for k, p := range live {
		if permits(p, s.Objections(p.Owner), "p") {
			permitted = append(permitted, k)
		}
	}
	if n := s.MetaCount(); n != records {
		t.Fatalf("MetaCount = %d, the engine holds %d records", n, records)
	}
	// Invariant 4: the purpose index agrees with the engine, in key order.
	slices.Sort(permitted)
	if got, err := s.KeysByPurpose(ctlCtx, "p"); err != nil || !slices.Equal(got, permitted) {
		t.Fatalf("KeysByPurpose(p) = %v, %v; the engine's records permitting p are %v", got, err, permitted)
	}

	// Invariant 3: forgetting an owner leaves nothing behind.
	if _, err := s.Forget(ctlCtx, "owner0"); err != nil {
		t.Fatal(err)
	}
	recs, err := s.GetUser(ctlCtx, "owner0")
	if err != nil || len(recs) != 0 {
		t.Fatalf("owner0 records after forget: %d, %v", len(recs), err)
	}
}

func TestConcurrentRightsAndWrites(t *testing.T) {
	// Rights operations racing data-path writes must never error with
	// anything but the benign set, and the store must stay consistent.
	s := newFullStore(t, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("pd:alice:%d", i%10)
			s.Put(ctlCtx, key, []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"p"}})
			i++
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := s.GetUser(ctlCtx, "alice"); err != nil {
			t.Fatalf("GetUser under write load: %v", err)
		}
		if _, err := s.Export(ctlCtx, "alice"); err != nil {
			t.Fatalf("Export under write load: %v", err)
		}
	}
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatalf("Forget under write load: %v", err)
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentExpiryAndAccess(t *testing.T) {
	// The engine's expirer runs concurrently with compliance-layer reads
	// in production; exercise that interleaving on the wall clock.
	cfg := Strict("")
	cfg.DefaultTTL = 24 * time.Hour
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		ttl := time.Duration(1+i%5) * time.Millisecond
		if i%2 == 0 {
			ttl = time.Hour
		}
		if err := s.Put(ctlCtx, key, []byte("v"), PutOptions{Owner: "alice", TTL: ttl}); err != nil {
			t.Fatal(err)
		}
	}
	s.StartExpirer()
	defer s.StopExpirer()
	testutil.Eventually(t, 10*time.Second, 0, func() bool {
		for i := 0; i < 100; i++ {
			s.Get(ctlCtx, fmt.Sprintf("k%d", i))
		}
		return s.Engine().ExpiredCount() >= 250
	}, "expirer never reclaimed the short-TTL keys")
	st := s.Maintain()
	_ = st
	// All short-TTL keys must eventually be gone; long-TTL ones intact.
	for i := 0; i < 500; i += 2 {
		if !s.Engine().Exists(fmt.Sprintf("k%d", i)) {
			t.Fatalf("long-TTL key k%d vanished", i)
		}
	}
}

// TestBackgroundExpiryIsAudited pins that the maintenance loop expires
// through ExpiryCycle: every key it reaps is on the trail, in EXPIRECYCLE
// records whose reclaimed= counts sum to the keys reaped.
func TestBackgroundExpiryIsAudited(t *testing.T) {
	s, err := Open(Strict(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	const keys = 20
	for i := 0; i < keys; i++ {
		if err := s.Put(ctlCtx, fmt.Sprintf("k%d", i), []byte("v"),
			PutOptions{Owner: "alice", TTL: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	s.StartExpirer()
	if !s.RetentionStats().ExpirerRunning {
		t.Fatal("expirer not reported running")
	}
	testutil.Eventually(t, 10*time.Second, 0, func() bool {
		return s.RetentionStats().ExpiredTotal == keys
	}, "the loop never reaped the keys")
	testutil.Eventually(t, 10*time.Second, 0, func() bool {
		recs, err := s.Trail().Query(audit.Filter{Op: "EXPIRECYCLE"})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, r := range recs {
			var n int
			if _, err := fmt.Sscanf(r.Detail, "reclaimed=%d", &n); err != nil {
				t.Fatalf("EXPIRECYCLE detail %q: %v", r.Detail, err)
			}
			sum += n
		}
		return sum == keys
	}, "background expiry is not on the trail")
}
