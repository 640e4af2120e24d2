package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
)

// The crash-recovery matrix: for every combination of engine shard count
// and AOF fsync policy, a scripted workload is interrupted at a series of
// kill points; at each one the on-disk journal (as of the last sync) is
// copied aside — a crash-consistent image — and reopened, and the replayed
// store must match the live store exactly: keyspace, values, retention
// deadlines, GDPR metadata and standing objections. The shard count must
// also be invisible: shards=1 and shards=16 replay to identical state.

// crashDump renders the store's observable state as a canonical string.
func crashDump(t *testing.T, st *Store) string {
	t.Helper()
	keys := st.Engine().Keys("*")
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v, ok := st.Engine().Get(k)
		if !ok || strings.HasPrefix(k, ownerKeyPrefix) {
			continue // an owner record shows as its owner's objections below
		}
		fmt.Fprintf(&b, "key %s=%s", k, v)
		if dl, has := st.Engine().Deadline(k); has {
			fmt.Fprintf(&b, " ttl=%s", dl.UTC().Format(time.RFC3339Nano))
		}
		if m, err := st.Metadata(Ctx{Actor: "auditor"}, k); err == nil {
			fmt.Fprintf(&b, " owner=%s purposes=%s objections=%s",
				m.Owner, strings.Join(m.Purposes, ","), strings.Join(m.Objections, ","))
		}
		b.WriteString("\n")
	}
	for _, owner := range []string{"alice", "bob", "carol"} {
		if obj := st.Objections(owner); len(obj) > 0 {
			fmt.Fprintf(&b, "objections %s=%s\n", owner, strings.Join(obj, ","))
		}
	}
	return b.String()
}

// crashScript is the workload; each step is one kill point.
func crashScript(t *testing.T, st *Store) []func() {
	t.Helper()
	ctx := Ctx{Actor: "app", Purpose: "service"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	return []func(){
		func() {
			for i := 0; i < 16; i++ {
				owner := "alice"
				if i%2 == 1 {
					owner = "bob"
				}
				must(st.Put(ctx, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i)),
					PutOptions{Owner: owner, Purposes: []string{"service"}}))
			}
		},
		func() {
			entries := make([]BatchEntry, 8)
			for i := range entries {
				entries[i] = BatchEntry{Key: fmt.Sprintf("batch%02d", i), Value: []byte("bv")}
			}
			must(st.PutBatch(ctx, entries, PutOptions{Owner: "carol", Purposes: []string{"service"}}))
		},
		func() {
			must(st.Put(ctx, "retained", []byte("short"), PutOptions{
				Owner: "alice", Purposes: []string{"service"}, TTL: time.Hour}))
		},
		func() { must(st.Delete(ctx, "k02")) },
		func() { must(st.Object(ctx, "alice", "ads")) },
		func() {
			if _, err := st.Forget(ctx, "bob"); err != nil {
				t.Fatal(err)
			}
		},
		func() { must(st.Expire(ctx, "k04", 30*time.Minute)) },
		func() {
			must(st.Put(ctx, "k00", []byte("rewritten"), PutOptions{
				Owner: "carol", Purposes: []string{"billing"}}))
		},
	}
}

func crashCfg(path string, vc *clock.Virtual, shards int, policy aof.SyncPolicy) Config {
	return Config{
		Compliant:  true,
		Capability: CapabilityPartial,
		AOFPath:    path,
		AOFSync:    Ptr(policy),
		Clock:      vc,
		Shards:     shards,
	}
}

// copyFile copies the current on-disk journal to a fresh directory.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	policies := []aof.SyncPolicy{aof.SyncAlways, aof.SyncEverySec, aof.SyncNo}
	// finalDumps[policy][shards] — the end state must also agree across
	// shard counts for every policy.
	finalDumps := make(map[aof.SyncPolicy]map[int]string)
	for _, policy := range policies {
		finalDumps[policy] = make(map[int]string)
	}
	for _, shards := range []int{1, 16} {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("shards=%d/sync=%s", shards, policy), func(t *testing.T) {
				dir := t.TempDir()
				vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
				live, err := Open(crashCfg(filepath.Join(dir, "live.aof"), vc, shards, policy))
				if err != nil {
					t.Fatal(err)
				}
				defer live.Close()

				for i, step := range crashScript(t, live) {
					step()
					// Crash-consistent image: everything synced so far. For
					// everysec/no this is what survives a crash after the
					// last (explicit or periodic) sync — the matrix pins
					// that replaying it reproduces the live state exactly.
					if err := live.Log().Sync(); err != nil {
						t.Fatal(err)
					}
					killDir := t.TempDir()
					killPath := filepath.Join(killDir, "live.aof")
					copyFile(t, filepath.Join(dir, "live.aof"), killPath)

					reopened, err := Open(crashCfg(killPath, vc, shards, policy))
					if err != nil {
						t.Fatalf("kill point %d: reopen: %v", i, err)
					}
					want := crashDump(t, live)
					got := crashDump(t, reopened)
					reopened.Close()
					if got != want {
						t.Fatalf("kill point %d: replayed state diverged\n--- live ---\n%s--- replayed ---\n%s",
							i, want, got)
					}
					if i == 7 {
						finalDumps[policy][shards] = got
					}
				}
			})
		}
	}
	for _, policy := range policies {
		one, sixteen := finalDumps[policy][1], finalDumps[policy][16]
		if one == "" || sixteen == "" {
			t.Fatalf("sync=%s: missing final dumps (subtest failed?)", policy)
		}
		if one != sixteen {
			t.Errorf("sync=%s: shards=1 and shards=16 replay to different state\n--- 1 ---\n%s--- 16 ---\n%s",
				policy, one, sixteen)
		}
	}
}

// TestCrashTornTailRecovery pins the torn-write contract: truncating the
// journal at arbitrary byte boundaries (a crash mid-append) must still
// reopen cleanly, and the surviving keys must be exactly a prefix of the
// write order with their correct values — no corruption, no resurrection,
// no reordering.
func TestCrashTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	vc := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	path := filepath.Join(dir, "torn.aof")
	st, err := Open(crashCfg(path, vc, 16, aof.SyncNo))
	if err != nil {
		t.Fatal(err)
	}
	ctx := Ctx{Actor: "app", Purpose: "service"}
	var order []string
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("torn%02d", i)
		order = append(order, k)
		if err := st.Put(ctx, k, []byte("val-"+k), PutOptions{Owner: "dora", Purposes: []string{"service"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	for _, cut := range []int{len(full), len(full) - 1, len(full) - 7, len(full) / 2, len(full) / 4, 3, 0} {
		if cut < 0 {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			tornPath := filepath.Join(t.TempDir(), "torn.aof")
			if err := os.WriteFile(tornPath, full[:cut], 0o600); err != nil {
				t.Fatal(err)
			}
			re, err := Open(crashCfg(tornPath, vc, 16, aof.SyncNo))
			if err != nil {
				t.Fatalf("torn journal rejected: %v", err)
			}
			defer re.Close()
			present := 0
			for i, k := range order {
				if re.Engine().Exists(k) {
					if present != i {
						t.Fatalf("key %s present but earlier key missing: survivors are not a prefix", k)
					}
					v, _ := re.Engine().Get(k)
					if string(v) != "val-"+k {
						t.Fatalf("key %s corrupted: %q", k, v)
					}
					present++
				}
			}
			if cut == len(full) && present != len(order) {
				t.Fatalf("untruncated replay lost keys: %d/%d", present, len(order))
			}
		})
	}
}
