package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/clock"
)

// TestGroupedProbe checks Probe against the per-key probe it batches. Two
// engines hold the same keys, some missing, some live and some past their
// deadline, over 1, 16 and 64 shards. Each seeded round draws a batch (keys
// may repeat, and some batches are longer than groupMax). One engine probes
// it with Probe; the other probes its keys one at a time, in input order,
// with liveLocked and a READ when asked.
// Every entry must agree: found, value, record and deadline. Each dead key
// is reaped once, with one DEL; a READ is journaled per probe only when
// asked; each key's records come in the same order on both; the batch's
// records come in ascending shard order; and both engines end the round
// holding the same entries.
func TestGroupedProbe(t *testing.T) {
	const universe = 80
	recs := []*Record{nil, {Epoch: 1}, {Epoch: 2}}
	for _, shards := range []int{1, 16, 64} {
		for seed := int64(1); seed <= 10; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			vc := clock.NewVirtual(time.Unix(1_600_000_000, 0))
			var dbs [2]*DB
			var logs [2][]string
			for d := range dbs {
				dbs[d] = New(Options{Clock: vc, Shards: shards, JournalReads: true})
			}
			key := func(i int) string { return fmt.Sprintf("k%02d", i) }
			for i := 0; i < universe; i++ {
				var deadline time.Time
				switch rnd.Intn(4) {
				case 0: // missing
					continue
				case 1: // no deadline
				case 2: // dead after the first advance
					deadline = vc.Now().Add(time.Minute)
				default: // dead after a later one, or never within the test
					deadline = vc.Now().Add(time.Duration(1+rnd.Intn(6)) * time.Hour)
				}
				rec := recs[rnd.Intn(len(recs))]
				for _, db := range dbs {
					db.Restore(key(i), []byte("v"+key(i)), rec, deadline)
				}
			}
			for d, db := range dbs {
				db.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
					logs[d] = append(logs[d], name+" "+string(bytes.Join(args, []byte(" "))))
					return nil
				}))
			}
			for round := 0; round < 30; round++ {
				name := fmt.Sprintf("shards=%d seed=%d round=%d", shards, seed, round)
				if round%5 == 0 {
					vc.Advance(time.Hour)
				}
				n := 1 + rnd.Intn(groupMax)
				if round%7 == 6 {
					n = groupMax + rnd.Intn(groupMax)
				}
				batch := make([]string, n)
				for i := range batch {
					batch[i] = key(rnd.Intn(universe))
				}
				read := rnd.Intn(2) == 0
				logs = [2][]string{}

				out, found := make([]Entry, n), make([]bool, n)
				dbs[0].Probe(batch, vc.Now(), read, out, found)
				dbs[0].Flush()
				ref := dbs[1]
				for i, k := range batch {
					sh := ref.shardFor(k)
					sh.mu.Lock()
					e, ok := ref.liveLocked(sh, k)
					if read {
						ref.logReadLocked(k)
					}
					sh.mu.Unlock()
					want := e.lend()
					if found[i] != ok || !bytes.Equal(out[i].Value, want.Value) || out[i].Record != want.Record || !out[i].Deadline.Equal(want.Deadline) {
						t.Fatalf("%s: %s probed as %v %s, per key %v %s", name, k, found[i], entryLine(out[i]), ok, entryLine(want))
					}
				}
				ref.Flush()

				probes := map[string]int{}
				for _, k := range batch {
					probes[k]++
				}
				for _, k := range batch {
					var got [2][]string
					for d := range logs {
						for _, r := range logs[d] {
							if strings.HasSuffix(r, " "+k) {
								got[d] = append(got[d], r)
							}
						}
					}
					if !slices.Equal(got[0], got[1]) {
						t.Fatalf("%s: %s journaled %q, per key %q", name, k, got[0], got[1])
					}
					dels := 0
					if slices.Contains(got[0], "DEL "+k) {
						dels = 1
					}
					reads := 0
					if read {
						reads = probes[k]
					}
					if len(got[0]) != dels+reads || (dels == 1 && got[0][0] != "DEL "+k) {
						t.Fatalf("%s: %s journaled %q for %d probes (read=%v)", name, k, got[0], probes[k], read)
					}
				}
				if len(logs[0]) != len(logs[1]) {
					t.Fatalf("%s: %d records, per key %d", name, len(logs[0]), len(logs[1]))
				}
				for i := 1; i < len(logs[0]); i++ {
					prev, cur := strings.Fields(logs[0][i-1])[1], strings.Fields(logs[0][i])[1]
					if fnv32a(prev)&dbs[0].mask > fnv32a(cur)&dbs[0].mask {
						t.Fatalf("%s: %q journaled after %q, a higher shard's", name, logs[0][i], logs[0][i-1])
					}
				}
				if a, b := dumpEntries(dbs[0]), dumpEntries(dbs[1]); a != b {
					t.Fatalf("%s: engines diverged\nprobe:   %s\nper key: %s", name, a, b)
				}
				if a, b := dbs[0].ExpiredCount(), dbs[1].ExpiredCount(); a != b {
					t.Fatalf("%s: %d keys reaped, per key %d", name, a, b)
				}
			}
		}
	}
}
