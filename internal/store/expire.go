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
	e, ok := db.liveLocked(sh, key)
	if ok {
		db.setDeadlineLocked(sh, key, e, deadline, 0)
	}
	sh.mu.Unlock()
	db.jq.flush()
	return ok
}

// setDeadlineLocked gives key, whose live entry is e, the deadline, journaled
// as EXPIREAT under ticket (0: none), or reaps it if the deadline has passed.
// Callers hold sh.mu and flush after releasing it.
func (db *DB) setDeadlineLocked(sh *shard, key string, e entry, deadline time.Time, ticket uint64) {
	ns := deadlineNS(deadline)
	if ns <= db.nowNS() {
		db.reapLocked(sh, key, e)
		return
	}
	db.putLocked(sh, key, e.val, e.rec, ns)
	db.jq.enqueueTicket(ticket, "EXPIREAT", [][]byte{[]byte(key), EncodeDeadline(deadline)})
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
	return deadlineTime(e.deadline), e.deadline != 0
}

// CycleStats reports what one active-expire cycle did.
type CycleStats struct {
	// Sampled is the number of keys examined: drawn by the probabilistic
	// cycle, or peeked at on top of a shard's deadline heap by the heap
	// cycle.
	Sampled int
	// Expired is the number of keys deleted.
	Expired int
	// Loops is the number of sampling iterations performed (the
	// probabilistic cycle repeats while ≥25% of a sample was expired).
	Loops int
}

// ActiveExpireCycle runs one invocation of the DB's expiry strategy.
// Callers are expected to invoke it once per ActiveExpireCyclePeriod, which
// is what core.Store's maintenance loop does. The heap cycle visits shards one at a time, so
// writers on other shards are never blocked by it; the probabilistic cycle
// keeps Redis's global 20-keys-per-loop sampling budget (see
// probabilisticCycle).
func (db *DB) ActiveExpireCycle() CycleStats {
	if db.strategy != ExpiryHeap {
		return db.probabilisticCycle()
	}
	st := CycleStats{Loops: 1}
	for _, sh := range db.shards {
		db.heapCycleShard(sh, &st)
		// Flush per shard: a Figure-2-scale backlog would otherwise buffer
		// the whole cycle's DEL records (O(backlog) memory) before a single
		// giant drain.
		db.jq.flush()
	}
	return st
}

// probabilisticCycle is Redis 4.0's activeExpireCycle as described in the
// paper: sample 20 random keys from those that carry a TTL (Redis's expires
// dict; here the shards' heap slices), delete the expired ones, and repeat
// immediately while at least 5 of the 20 sampled keys were expired.
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
			sizes[i] = len(sh.expires)
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
			// shards' heap slices (sizes are a per-loop snapshot; the slight
			// staleness only perturbs the sampling distribution).
			r := db.randIntn(total)
			shIdx := 0
			for r >= sizes[shIdx] {
				r -= sizes[shIdx]
				shIdx++
			}
			sh := db.shards[shIdx]
			sh.mu.Lock()
			if len(sh.expires) == 0 {
				sh.mu.Unlock()
				continue
			}
			k := sh.expires[db.randIntn(len(sh.expires))].key
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

// heapCycleShard reaps every due key of one shard by popping its deadline
// heap: one peek per key reaped, and one more at the first key not yet due,
// whatever the number of keys that carry a TTL.
func (db *DB) heapCycleShard(sh *shard, st *CycleStats) {
	sh.mu.Lock()
	now := db.nowNS()
	for len(sh.expires) > 0 {
		st.Sampled++
		top := sh.expires[0]
		if top.deadline > now {
			break
		}
		db.reapLocked(sh, top.key, sh.dict[top.key])
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

// RetentionLag returns how many keys are past their deadline but still
// physically present, plus the age of the oldest overdue deadline — the
// retention analogue of replication lag: how far reclamation trails the
// storage-limitation deadlines the controller promised. It visits only the
// overdue keys.
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
	if n = sh.expires.dueFrom(0, now); n == 0 {
		return 0, now
	}
	return n, sh.expires[0].deadline
}

// expiryNode is one key that carries a TTL, as its shard's deadline heap
// holds it: the deadline beside the key, so ordering never probes the dict.
type expiryNode struct {
	deadline int64
	key      string
}

// expiryHeap is a binary min-heap of nodes ordered by deadline, indexed:
// each key's entry.slot is its node's position. It is maintained inline
// (container/heap would box every node on the write path).
type expiryHeap []expiryNode

// dueFrom counts the nodes at or below slot i whose deadline is at or
// before now. Heap order ends each path at its first node that is not due.
func (h expiryHeap) dueFrom(i int, now int64) int {
	if i >= len(h) || h[i].deadline > now {
		return 0
	}
	return 1 + h.dueFrom(2*i+1, now) + h.dueFrom(2*i+2, now)
}

// siftLocked places node n, which takes slot i, where heap order puts it:
// up past every later parent, else down past every earlier child. It
// rewrites the entry slot of each key it moves past and returns n's slot,
// which is the caller's to store in n's entry. Callers hold sh.mu.
func (sh *shard) siftLocked(i int, n expiryNode) int32 {
	h := sh.expires
	for i > 0 {
		p := (i - 1) / 2
		if h[p].deadline <= n.deadline {
			break
		}
		h[i] = h[p]
		sh.slotLocked(h[i].key, i)
		i = p
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].deadline < h[c].deadline {
			c++
		}
		if h[c].deadline >= n.deadline {
			break
		}
		h[i] = h[c]
		sh.slotLocked(h[i].key, i)
		i = c
	}
	h[i] = n
	return int32(i)
}

// unheapLocked removes the node at slot i: the last node takes its place
// and sifts. Callers hold sh.mu.
func (sh *shard) unheapLocked(i int32) {
	last := len(sh.expires) - 1
	n := sh.expires[last]
	sh.expires[last] = expiryNode{}
	sh.expires = sh.expires[:last]
	if int(i) < last {
		sh.slotLocked(n.key, int(sh.siftLocked(int(i), n)))
	}
}

// slotLocked points key's entry at heap slot i. Callers hold sh.mu.
func (sh *shard) slotLocked(key string, i int) {
	e := sh.dict[key]
	e.slot = int32(i)
	sh.dict[key] = e
}
