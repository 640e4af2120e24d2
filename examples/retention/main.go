// Retention: the §4.3 storage-limitation story in miniature. The same
// expiring dataset is run under the two expiry strategies — Redis's lazy
// probabilistic sampling and the compliant store's deadline heap — on a
// virtual clock, showing how long expired personal data lingers under
// each. Run with:
//
//	go run ./examples/retention
package main

import (
	"fmt"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

func main() {
	const (
		totalKeys = 20000
		shortTTL  = 5 * time.Minute
		longTTL   = 5 * 24 * time.Hour
	)

	fmt.Printf("dataset: %d keys, 20%% expire at %v, 80%% at %v\n\n",
		totalKeys, shortTTL, longTTL)
	fmt.Printf("%-22s %14s %16s %12s\n", "strategy", "cycles to clear", "simulated delay", "work (keys)")

	for _, strat := range []store.ExpiryStrategy{store.ExpiryLazyProbabilistic, store.ExpiryHeap} {
		cycles, sampled := runStrategy(strat, totalKeys, shortTTL, longTTL)
		fmt.Printf("%-22s %15d %16v %12d\n",
			strat, cycles, time.Duration(cycles)*store.ActiveExpireCyclePeriod, sampled)
	}

	fmt.Println("\nThe lazy strategy is Redis's: once every 100ms it samples 20 random")
	fmt.Println("keys from the expire set and only repeats immediately if ≥5 were dead.")
	fmt.Println("With 20% of a large keyspace expired, dead keys survive for hours —")
	fmt.Println("the paper measured ~3h at 128k keys (Figure 2). The paper's fix scans")
	fmt.Println("the whole expire set each cycle; the deadline heap gets the same")
	fmt.Println("timeliness touching only the keys that are actually due.")
}

// runStrategy returns how many 100ms cycles clearing the expired keys took
// and how many keys the strategy examined in total.
func runStrategy(strat store.ExpiryStrategy, n int, shortTTL, longTTL time.Duration) (cycles int, sampled int) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	db := store.New(store.Options{Clock: vc, Seed: 7, Strategy: strat})
	due := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user%08d", i)
		if i%5 == 0 {
			db.SetEX(key, []byte("profile"), shortTTL)
			due++
		} else {
			db.SetEX(key, []byte("profile"), longTTL)
		}
	}
	vc.Advance(shortTTL)
	exp := store.NewExpirer(db)
	for db.ExpiredCount() < uint64(due) {
		st := exp.Step()
		sampled += st.Sampled
		cycles++
		if cycles > 10_000_000 {
			panic("expiry never completed")
		}
	}
	return cycles, sampled
}
