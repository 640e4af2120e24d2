package store

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"gdprstore/internal/clock"
)

// populate loads n keys; fraction shortFrac get shortTTL, the rest longTTL.
// This is the Figure 2 population: 20% short-term (5 min), 80% long-term
// (5 days).
func populate(db *DB, n int, shortFrac float64, shortTTL, longTTL time.Duration) (short int) {
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", i)
		if float64(i%100)/100 < shortFrac {
			db.SetEX(k, []byte("payload"), shortTTL)
			short++
		} else {
			db.SetEX(k, []byte("payload"), longTTL)
		}
	}
	return short
}

func TestProbabilisticCycleReclaimsSome(t *testing.T) {
	db, vc := newTestDB()
	populate(db, 1000, 0.2, 5*time.Minute, 5*24*time.Hour)
	vc.Advance(5*time.Minute + time.Second)
	st := db.ActiveExpireCycle()
	if st.Expired == 0 {
		t.Fatal("cycle reclaimed nothing despite 200 expired keys")
	}
	if st.Expired >= 200 {
		t.Fatalf("one probabilistic cycle reclaimed all %d — too aggressive", st.Expired)
	}
}

func TestProbabilisticCycleRepeatsWhenDense(t *testing.T) {
	db, vc := newTestDB()
	// 100% expired: the loop should repeat (≥5 of 20 expired per sample).
	populate(db, 500, 1.0, time.Minute, time.Minute)
	vc.Advance(2 * time.Minute)
	st := db.ActiveExpireCycle()
	if st.Loops < 2 {
		t.Fatalf("loops = %d, want repeats under dense expiry", st.Loops)
	}
	// With everything expired the loop only exits once the sample finds
	// <5 expired, i.e. when nearly everything is gone.
	if db.ExpiredUnreclaimed() > 20 {
		t.Fatalf("dense cycle left %d expired keys", db.ExpiredUnreclaimed())
	}
}

func TestProbabilisticLagGrowsWithDBSize(t *testing.T) {
	// The core claim of Figure 2: with a fixed 20% expired fraction, the
	// number of 100 ms cycles needed to clear the expired keys grows with
	// total DB size.
	cyclesFor := func(n int) int {
		vc := clock.NewVirtual(time.Unix(0, 0))
		db := New(Options{Clock: vc, Seed: 7, Strategy: ExpiryLazyProbabilistic})
		populate(db, n, 0.2, 5*time.Minute, 5*24*time.Hour)
		vc.Advance(5*time.Minute + time.Second)
		cycles := 0
		for db.ExpiredUnreclaimed() > 0 {
			vc.Advance(ActiveExpireCyclePeriod)
			db.ActiveExpireCycle()
			cycles++
			if cycles > 2_000_000 {
				t.Fatal("expiry never completed")
			}
		}
		return cycles
	}
	small := cyclesFor(1000)
	large := cyclesFor(8000)
	if large <= small {
		t.Fatalf("erasure lag did not grow with DB size: 1k→%d cycles, 8k→%d cycles", small, large)
	}
}

func TestHeapStrategyReclaimsAllInOneCycle(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	db := New(Options{Clock: vc, Seed: 7, Strategy: ExpiryHeap})
	short := populate(db, 5000, 0.2, 5*time.Minute, 5*24*time.Hour)
	vc.Advance(5*time.Minute + time.Second)
	st := db.ActiveExpireCycle()
	if st.Expired != short || st.Loops != 1 {
		t.Fatalf("heap cycle reclaimed %d in %d loops, want %d in 1", st.Expired, st.Loops, short)
	}
	if n := db.ExpiredUnreclaimed(); n != 0 {
		t.Fatalf("heap cycle left %d expired keys", n)
	}
	// The heap must not have touched the long-term keys.
	if db.RawLen() != 5000-short {
		t.Fatalf("raw len = %d", db.RawLen())
	}
}

// A key whose deadline moves later is not reaped at its old deadline, and is
// reaped at its new one: the index follows the change instead of keeping the
// outdated deadline around.
func TestHeapStaleEntriesSkipped(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	db := New(Options{Clock: vc, Seed: 7, Strategy: ExpiryHeap})
	db.SetEX("k", []byte("v"), time.Minute)
	db.Expire("k", time.Hour) // the key's heap node takes the later deadline
	vc.Advance(2 * time.Minute)
	st := db.ActiveExpireCycle()
	if st.Expired != 0 {
		t.Fatal("the old deadline deleted a live key")
	}
	if !db.Exists("k") {
		t.Fatal("key with extended TTL vanished")
	}
	vc.Advance(time.Hour)
	st = db.ActiveExpireCycle()
	if st.Expired != 1 {
		t.Fatalf("heap missed the real deadline, expired=%d", st.Expired)
	}
}

// The heap cycle's work is counted, not timed: with nothing due it peeks at
// most once per shard however many keys carry a TTL, and with k keys due it
// looks at no more than k keys plus one per shard.
func TestExpiryCycleCountedWork(t *testing.T) {
	sampled := func(n int) (idle, due CycleStats, short int) {
		vc := clock.NewVirtual(time.Unix(0, 0))
		db := New(Options{Clock: vc, Strategy: ExpiryHeap})
		short = populate(db, n, 0.2, 5*time.Minute, 5*24*time.Hour)
		idle = db.ActiveExpireCycle()
		vc.Advance(5 * time.Minute)
		return idle, db.ActiveExpireCycle(), short
	}
	for _, n := range []int{5_000, 200_000} {
		idle, due, short := sampled(n)
		if idle.Sampled != DefaultShards || idle.Expired != 0 {
			t.Errorf("%d keys, none due: cycle sampled %d and expired %d, want %d and 0", n, idle.Sampled, idle.Expired, DefaultShards)
		}
		if due.Expired != short || due.Sampled > short+DefaultShards {
			t.Errorf("%d keys, %d due: cycle expired %d and sampled %d, want all and at most %d", n, short, due.Expired, due.Sampled, short+DefaultShards)
		}
	}
}

// Property: under any history of pushes, deadline changes (earlier, later,
// none) and removals, every key with a deadline sits at its slot in heap
// order, and popping the root until the heap is empty yields the deadlines
// in non-decreasing order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(ops [][3]uint8) bool {
		db := New(Options{Shards: 1})
		sh := db.shards[0]
		for _, op := range ops {
			k, deadline := fmt.Sprint(op[1]%24), int64(op[2]%40)
			if e, ok := sh.dict[k]; ok && op[0]%4 == 0 {
				db.deleteLocked(sh, k, e)
			} else {
				db.putLocked(sh, k, nil, nil, deadline) // 0: none
			}
			if checkShard(sh) != nil {
				return false
			}
		}
		last := int64(math.MinInt64)
		for len(sh.expires) > 0 {
			top := sh.expires[0]
			if top.deadline < last {
				return false
			}
			last = top.deadline
			db.deleteLocked(sh, top.key, sh.dict[top.key])
			if checkShard(sh) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpirerStep(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	db := New(Options{Clock: vc, Seed: 7, Strategy: ExpiryHeap})
	db.SetEX("k", []byte("v"), 150*time.Millisecond)
	step := func() CycleStats {
		vc.Advance(ActiveExpireCyclePeriod)
		return db.ActiveExpireCycle()
	}
	if st := step(); st.Expired != 0 || db.RawLen() != 1 { // 100ms: not yet due
		t.Fatal("expired too early")
	}
	if st := step(); st.Expired != 1 || db.RawLen() != 0 { // 200ms: due
		t.Fatal("heap step missed the key")
	}
	if n := db.ExpiredCount(); n != 1 {
		t.Fatalf("expired count = %d", n)
	}
}

func TestDeadlineAccessor(t *testing.T) {
	db, vc := newTestDB()
	db.SetEX("k", []byte("v"), time.Minute)
	d, ok := db.Deadline("k")
	if !ok || !d.Equal(vc.Now().Add(time.Minute)) {
		t.Fatalf("Deadline = %v, %v", d, ok)
	}
	if _, ok := db.Deadline("missing"); ok {
		t.Fatal("Deadline for missing key")
	}
}
