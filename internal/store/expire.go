package store

import "time"

// TTLStatus classifies a TTL query result, mirroring Redis's -2/-1/≥0
// convention.
type TTLStatus int

// TTL query results.
const (
	// TTLMissing means the key does not exist (Redis returns -2).
	TTLMissing TTLStatus = iota
	// TTLNone means the key exists without an expiry (Redis returns -1).
	TTLNone
	// TTLSet means the key has the returned time-to-live remaining.
	TTLSet
)

// Expire sets a relative TTL on an existing key. It reports whether the key
// existed.
func (db *DB) Expire(key string, ttl time.Duration) bool {
	return db.ExpireAt(key, db.clk.Now().Add(ttl))
}

// ExpireAt sets an absolute deadline on an existing key. It reports whether
// the key existed. A deadline in the past deletes the key immediately, as
// Redis does.
func (db *DB) ExpireAt(key string, deadline time.Time) bool {
	sh := db.shardFor(key)
	sh.mu.Lock()
	ok := db.expireAtLocked(sh, key, deadline)
	sh.mu.Unlock()
	db.jq.flush()
	return ok
}

func (db *DB) expireAtLocked(sh *shard, key string, deadline time.Time) bool {
	e, ok := db.liveLocked(sh, key)
	if !ok {
		return false
	}
	ns := deadlineNS(deadline)
	if ns <= db.nowNS() {
		db.reapLocked(sh, key, e)
		return true
	}
	db.putLocked(sh, key, e.val, e.rec, ns)
	db.jq.enqueue("EXPIREAT", []byte(key), EncodeDeadline(deadline))
	return true
}

// Persist removes the TTL from key, reporting whether a TTL was removed.
func (db *DB) Persist(key string) bool {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	if ok = ok && e.deadline != 0; ok {
		db.putLocked(sh, key, e.val, e.rec, 0)
		db.jq.enqueue("PERSIST", []byte(key))
	}
	sh.mu.Unlock()
	db.jq.flush()
	return ok
}

// TTL returns the remaining time-to-live of key.
func (db *DB) TTL(key string) (time.Duration, TTLStatus) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e, ok := db.liveLocked(sh, key)
	sh.mu.Unlock()
	db.jq.flush()
	switch {
	case !ok:
		return 0, TTLMissing
	case e.deadline == 0:
		return 0, TTLNone
	}
	return time.Unix(0, e.deadline).Sub(db.clk.Now()), TTLSet
}

// Deadline returns the absolute expiry deadline for key, if one is set.
func (db *DB) Deadline(key string) (time.Time, bool) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	e := sh.dict[key]
	sh.mu.Unlock()
	if e.deadline == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, e.deadline), true
}

// CycleStats reports what one active-expire cycle did.
type CycleStats struct {
	// Sampled is the number of keys examined.
	Sampled int
	// Expired is the number of keys deleted.
	Expired int
	// Loops is the number of sampling iterations performed (the
	// probabilistic cycle repeats while ≥25% of a sample was expired).
	Loops int
}

// ActiveExpireCycle runs one invocation of the configured expiry strategy.
// Callers are expected to invoke it once per ActiveExpireCyclePeriod, which
// is what Expirer does. The fast-scan and heap strategies visit shards one
// at a time, so writers on other shards are never blocked by the cycle; the
// probabilistic strategy keeps Redis's global 20-keys-per-loop sampling
// budget (see probabilisticCycle).
func (db *DB) ActiveExpireCycle() CycleStats {
	var st CycleStats
	switch db.Strategy() {
	case ExpiryFastScan:
		st.Loops = 1
		for _, sh := range db.shards {
			db.fastScanShard(sh, &st)
			// Flush per shard: a Figure-2-scale backlog would otherwise
			// buffer the whole cycle's DEL records (O(backlog) memory)
			// before a single giant drain.
			db.jq.flush()
		}
	case ExpiryHeap:
		st.Loops = 1
		for _, sh := range db.shards {
			db.heapCycleShard(sh, &st)
			db.jq.flush()
		}
	default:
		st = db.probabilisticCycle()
	}
	db.jq.flush()
	return st
}

// probabilisticCycle is Redis 4.0's activeExpireCycle as described in the
// paper: sample 20 random keys from those that carry a TTL (Redis's expires
// dict; here the shards' sampling slices), delete the expired ones, and
// repeat immediately while at least 5 of the 20 sampled keys were expired.
//
// The 20-key budget is deliberately global rather than per shard: each
// lookup picks a shard weighted by how many TTL'd keys it holds, then a
// uniform key within it — uniform sampling over every key with a TTL,
// exactly as the unsharded engine did. Sampling 20 keys per shard instead
// would reclaim shard-count times faster and silently erase the Figure 2
// erasure lag this strategy exists to reproduce.
func (db *DB) probabilisticCycle() CycleStats {
	var st CycleStats
	sizes := make([]int, len(db.shards))
	for {
		st.Loops++
		total := 0
		for i, sh := range db.shards {
			sh.mu.Lock()
			sizes[i] = len(sh.expireKeys)
			sh.mu.Unlock()
			total += sizes[i]
		}
		if total == 0 {
			return st
		}
		lookups := ActiveExpireLookupsPerLoop
		if total < lookups {
			lookups = total
		}
		expiredThisLoop := 0
		now := db.nowNS()
		for i := 0; i < lookups; i++ {
			// Weighted shard pick: index r into the concatenation of the
			// shards' sampling slices (sizes are a per-loop snapshot; the
			// slight staleness only perturbs the sampling distribution).
			r := db.randIntn(total)
			shIdx := 0
			for r >= sizes[shIdx] {
				r -= sizes[shIdx]
				shIdx++
			}
			sh := db.shards[shIdx]
			sh.mu.Lock()
			if len(sh.expireKeys) == 0 {
				sh.mu.Unlock()
				continue
			}
			k := sh.expireKeys[db.randIntn(len(sh.expireKeys))]
			st.Sampled++
			if e := sh.dict[k]; e.deadline <= now {
				db.reapLocked(sh, k, e)
				expiredThisLoop++
				st.Expired++
			}
			sh.mu.Unlock()
		}
		// Flush each loop's DELs (≤20 records) before deciding whether to
		// repeat, so a long dense-expiry run streams to the journal
		// instead of accumulating.
		db.jq.flush()
		if expiredThisLoop < ActiveExpireRepeatThreshold {
			return st
		}
	}
}

// fastScanShard is the paper's modification (§4.3) applied to one shard:
// visit every key of the shard that carries a TTL and erase each one that
// is due. One pass over every shard guarantees that no expired key survives
// the cycle.
func (db *DB) fastScanShard(sh *shard, st *CycleStats) {
	sh.mu.Lock()
	now := db.nowNS()
	st.Sampled += len(sh.expireKeys)
	sh.scanTTLLocked(func(k string, e entry) {
		if e.deadline <= now {
			db.reapLocked(sh, k, e)
			st.Expired++
		}
	})
	sh.mu.Unlock()
}

// scanTTLLocked calls fn with every key of the shard that carries a TTL,
// and its entry; fn may delete the key it is given. Where most keys carry
// one it ranges the dict, which is sequential memory, and where few do it
// probes the dict for each key of the sampling slice: at 50 000 keys, all
// with a TTL, a pass is 0.6 ms the first way and 2.3 ms the second, and
// the second is the one that does not grow with the keys that have none.
// Callers hold sh.mu.
func (sh *shard) scanTTLLocked(fn func(key string, e entry)) {
	if 4*len(sh.expireKeys) >= len(sh.dict) {
		for k, e := range sh.dict {
			if e.deadline != 0 {
				fn(k, e)
			}
		}
		return
	}
	// Backwards, so the key a deletion swaps into slot i has been visited.
	for i := len(sh.expireKeys) - 1; i >= 0; i-- {
		k := sh.expireKeys[i]
		fn(k, sh.dict[k])
	}
}

// heapCycleShard pops due entries off one shard's deadline-ordered
// min-heap. Heap entries may be stale (the key was deleted or its TTL
// changed); they are validated against the key's entry before deletion.
func (db *DB) heapCycleShard(sh *shard, st *CycleStats) {
	sh.mu.Lock()
	now := db.clk.Now()
	for len(sh.heap) > 0 {
		top := sh.heap[0]
		if top.deadline.After(now) {
			break
		}
		sh.heap.pop()
		st.Sampled++
		e, ok := sh.dict[top.key]
		if !ok || e.deadline != top.deadline.UnixNano() {
			continue // stale entry
		}
		db.reapLocked(sh, top.key, e)
		st.Expired++
	}
	sh.mu.Unlock()
}

// ExpiredUnreclaimed returns how many keys are past their deadline but
// still physically present — the quantity whose decay Figure 2 plots.
func (db *DB) ExpiredUnreclaimed() int {
	n, _ := db.RetentionLag()
	return n
}

// RetentionLag visits every key that carries a TTL and returns how many
// are past their deadline but still physically present, plus the age of the
// oldest overdue deadline — the retention analogue of replication lag: how
// far reclamation trails the storage-limitation deadlines the controller
// promised.
func (db *DB) RetentionLag() (overdue int, oldest time.Duration) {
	now := db.nowNS()
	earliest := now
	for _, sh := range db.shards {
		sh.mu.Lock()
		n, first := sh.overdueLocked(now)
		sh.mu.Unlock()
		overdue += n
		earliest = min(earliest, first)
	}
	return overdue, time.Unix(0, now).Sub(time.Unix(0, earliest))
}

// overdueLocked counts the shard's keys whose deadline is at or before now,
// and returns the earliest such deadline (now when there is none). Callers
// hold sh.mu.
func (sh *shard) overdueLocked(now int64) (n int, earliest int64) {
	earliest = now
	sh.scanTTLLocked(func(_ string, e entry) {
		if e.deadline <= now {
			n++
			earliest = min(earliest, e.deadline)
		}
	})
	return n, earliest
}

// heapEntry is one (deadline, key) pair in the expiry min-heap.
type heapEntry struct {
	deadline time.Time
	key      string
}

// expiryHeap is a binary min-heap ordered by deadline. It is maintained
// inline (container/heap would force interface boxing on the hot path).
type expiryHeap []heapEntry

func (h *expiryHeap) push(e heapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].deadline.Before((*h)[parent].deadline) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *expiryHeap) pop() heapEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].deadline.Before((*h)[smallest].deadline) {
			smallest = l
		}
		if r < n && (*h)[r].deadline.Before((*h)[smallest].deadline) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
