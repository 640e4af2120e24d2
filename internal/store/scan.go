package store

import "sort"

// Keys returns all live keys matching the Redis-style glob pattern, in
// unspecified order. Pattern "*" matches everything. Shards are visited one
// at a time, so the result is per-shard consistent rather than a global
// atomic snapshot — the same guarantee Redis KEYS gives under concurrent
// writers.
func (db *DB) Keys(pattern string) []string {
	now := db.nowNS()
	var out []string
	for _, sh := range db.shards {
		sh.mu.Lock()
		for k, e := range sh.dict {
			if e.deadAt(now) {
				continue // expired but unreclaimed: invisible, as in Redis
			}
			if MatchGlob(pattern, k) {
				out = append(out, k)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Scan returns up to count live keys matching pattern, starting from the
// opaque cursor. It returns the next cursor, or 0 when iteration is
// complete. Unlike Redis's reverse-binary cursor this implementation
// iterates a sorted snapshot of the keyspace, which gives the same
// guarantee the engine needs (every key present for the whole scan is
// returned at least once) with simpler semantics. The snapshot is collected
// shard by shard and then sorted, so keys moving between cursor positions
// under concurrent writers are possible — the usual SCAN caveat.
func (db *DB) Scan(cursor uint64, pattern string, count int) (keys []string, next uint64) {
	if count <= 0 {
		count = 10
	}
	now := db.nowNS()
	var all []string
	for _, sh := range db.shards {
		sh.mu.Lock()
		// Grow once per shard (the dict size is known under the lock)
		// instead of paying append's doubling reallocations per key.
		if need := len(all) + len(sh.dict); need > cap(all) {
			grown := make([]string, len(all), need)
			copy(grown, all)
			all = grown
		}
		for k, e := range sh.dict {
			if e.deadAt(now) {
				continue
			}
			all = append(all, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(all)
	// cursor is the index of the first key not yet returned on the sorted
	// snapshot; since the snapshot is rebuilt per call, the cursor is an
	// ordinal position which remains correct under insertions before it
	// only approximately — acceptable for the workloads here, and
	// documented as snapshot-ordinal semantics.
	start := int(cursor)
	if start >= len(all) {
		return nil, 0
	}
	end := start + count
	if end > len(all) {
		end = len(all)
	}
	for _, k := range all[start:end] {
		if MatchGlob(pattern, k) {
			keys = append(keys, k)
		}
	}
	if end == len(all) {
		return keys, 0
	}
	return keys, uint64(end)
}

// RangeKeys calls fn for every live key until fn returns false. Each
// shard's lock is held while its keys are visited; fn must not call back
// into the DB.
func (db *DB) RangeKeys(fn func(key string, value []byte) bool) {
	now := db.nowNS()
	for _, sh := range db.shards {
		sh.mu.Lock()
		for k, e := range sh.dict {
			if e.deadAt(now) {
				continue
			}
			if !fn(k, e.val) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// MatchGlob implements Redis's stringmatchlen glob: '*' matches any
// sequence, '?' any single byte, '[a-c]' character classes with optional
// leading '^' negation, and '\' escapes the next byte.
func MatchGlob(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '*':
			// collapse consecutive stars
			for len(p) > 1 && p[1] == '*' {
				p = p[1:]
			}
			if len(p) == 1 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if MatchGlob(p[1:], s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		case '[':
			if len(s) == 0 {
				return false
			}
			end := 1
			neg := false
			if end < len(p) && p[end] == '^' {
				neg = true
				end++
			}
			matched := false
			first := true
			for end < len(p) && (p[end] != ']' || first) {
				first = false
				if p[end] == '\\' && end+1 < len(p) {
					end++
					if p[end] == s[0] {
						matched = true
					}
					end++
					continue
				}
				if end+2 < len(p) && p[end+1] == '-' && p[end+2] != ']' {
					lo, hi := p[end], p[end+2]
					if lo > hi {
						lo, hi = hi, lo
					}
					if s[0] >= lo && s[0] <= hi {
						matched = true
					}
					end += 3
					continue
				}
				if p[end] == s[0] {
					matched = true
				}
				end++
			}
			if end >= len(p) {
				return false // unterminated class
			}
			if matched == neg {
				return false
			}
			p, s = p[end+1:], s[1:]
		case '\\':
			if len(p) >= 2 {
				p = p[1:]
			}
			fallthrough
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}
