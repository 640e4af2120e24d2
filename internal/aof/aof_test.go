package aof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gdprstore/internal/testutil"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "appendonly.aof")
}

type rec struct {
	name string
	args [][]byte
}

func loadAll(t *testing.T, path string, key []byte) []rec {
	t.Helper()
	var out []rec
	n, err := Load(path, key, func(name string, args [][]byte) error {
		cp := make([][]byte, len(args))
		for i, a := range args {
			cp[i] = append([]byte(nil), a...)
		}
		out = append(out, rec{name, cp})
		return nil
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if n != len(out) {
		t.Fatalf("load count %d != %d", n, len(out))
	}
	return out
}

func TestAppendLoadRoundTrip(t *testing.T) {
	path := tempPath(t)
	l, err := Open(path, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append("SET", []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("DEL", []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := loadAll(t, path, nil)
	if len(got) != 2 || got[0].name != "SET" || got[1].name != "DEL" {
		t.Fatalf("got %+v", got)
	}
	if string(got[0].args[1]) != "v1" {
		t.Fatalf("payload = %q", got[0].args[1])
	}
}

func TestLoadMissingFile(t *testing.T) {
	n, err := Load(filepath.Join(t.TempDir(), "absent.aof"), nil, func(string, [][]byte) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestReopenAppends(t *testing.T) {
	path := tempPath(t)
	l, _ := Open(path, Options{})
	l.Append("SET", []byte("a"), []byte("1"))
	l.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Append("SET", []byte("b"), []byte("2"))
	l2.Close()
	got := loadAll(t, path, nil)
	if len(got) != 2 {
		t.Fatalf("after reopen got %d records", len(got))
	}
}

func TestTruncatedTailTolerated(t *testing.T) {
	path := tempPath(t)
	l, _ := Open(path, Options{})
	l.Append("SET", []byte("k1"), []byte("v1"))
	l.Append("SET", []byte("k2"), []byte("v2"))
	l.Close()
	// Simulate a torn write: chop bytes off the end.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o600); err != nil {
		t.Fatal(err)
	}
	got := loadAll(t, path, nil)
	if len(got) != 1 || string(got[0].args[0]) != "k1" {
		t.Fatalf("torn-tail load = %+v", got)
	}
}

func TestCorruptionMidFileReported(t *testing.T) {
	path := tempPath(t)
	l, _ := Open(path, Options{})
	l.Append("SET", []byte("k1"), []byte("v1"))
	l.Append("SET", []byte("k2"), []byte("v2"))
	l.Close()
	b, _ := os.ReadFile(path)
	b[2] = 'Z' // clobber the first record's header
	os.WriteFile(path, b, 0o600)
	_, err := Load(path, nil, func(string, [][]byte) error { return nil })
	if err == nil {
		t.Fatal("mid-file corruption not reported")
	}
}

func TestEncryptedRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	path := tempPath(t)
	l, err := Open(path, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	l.Append("SET", []byte("secret-key"), []byte("secret-value"))
	l.Close()

	// Ciphertext must not leak plaintext.
	raw, _ := os.ReadFile(path)
	if bytes.Contains(raw, []byte("secret-value")) {
		t.Fatal("plaintext visible in encrypted AOF")
	}
	got := loadAll(t, path, key)
	if len(got) != 1 || string(got[0].args[1]) != "secret-value" {
		t.Fatalf("decrypted load = %+v", got)
	}
	// Wrong key must fail, not silently decode garbage.
	wrong := bytes.Repeat([]byte{8}, 32)
	if _, err := Load(path, wrong, func(string, [][]byte) error { return nil }); err == nil {
		t.Fatal("wrong key decoded successfully")
	}
}

func TestEncryptedReopenContinuesKeystream(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 32)
	path := tempPath(t)
	l, _ := Open(path, Options{Key: key})
	l.Append("SET", []byte("a"), []byte("1"))
	l.Close()
	l2, _ := Open(path, Options{Key: key})
	l2.Append("SET", []byte("b"), []byte("2"))
	l2.Close()
	got := loadAll(t, path, key)
	if len(got) != 2 || string(got[1].args[0]) != "b" {
		t.Fatalf("got %+v", got)
	}
}

func TestRewriteCompacts(t *testing.T) {
	path := tempPath(t)
	l, _ := Open(path, Options{})
	for i := 0; i < 100; i++ {
		l.Append("SET", []byte("churn"), []byte(fmt.Sprintf("v%d", i)))
	}
	l.Append("SET", []byte("deleted-user"), []byte("personal-data"))
	l.Append("DEL", []byte("deleted-user"))
	before := l.Size()
	err := l.Rewrite(func(emit func(string, ...[]byte) error) error {
		return emit("SET", []byte("churn"), []byte("v99"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("rewrite did not shrink: %d -> %d", before, l.Size())
	}
	// The deleted key's data must be gone from the file (§4.3).
	raw, _ := os.ReadFile(path)
	if bytes.Contains(raw, []byte("personal-data")) {
		t.Fatal("deleted personal data persists after compaction")
	}
	// Appends must keep working after the swap.
	if err := l.Append("SET", []byte("after"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got := loadAll(t, path, nil)
	if len(got) != 2 || string(got[1].args[0]) != "after" {
		t.Fatalf("post-rewrite log = %+v", got)
	}
}

func TestRewriteEncrypted(t *testing.T) {
	key := bytes.Repeat([]byte{3}, 32)
	path := tempPath(t)
	l, _ := Open(path, Options{Key: key})
	l.Append("SET", []byte("k"), []byte("old"))
	err := l.Rewrite(func(emit func(string, ...[]byte) error) error {
		return emit("SET", []byte("k"), []byte("new"))
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Append("SET", []byte("k2"), []byte("tail"))
	l.Close()
	got := loadAll(t, path, key)
	if len(got) != 2 || string(got[0].args[1]) != "new" || string(got[1].args[1]) != "tail" {
		t.Fatalf("got %+v", got)
	}
}

func TestSyncCounters(t *testing.T) {
	path := tempPath(t)
	l, _ := Open(path, Options{Policy: SyncAlways})
	l.Append("SET", []byte("a"), []byte("1"))
	l.Append("SET", []byte("b"), []byte("2"))
	if l.Syncs() != 2 {
		t.Fatalf("always policy syncs = %d, want 2", l.Syncs())
	}
	if l.Appends() != 2 {
		t.Fatalf("appends = %d", l.Appends())
	}
	l.Close()

	l2, _ := Open(tempPath(t), Options{Policy: SyncNo})
	l2.Append("SET", []byte("a"), []byte("1"))
	if l2.Syncs() != 0 {
		t.Fatalf("no policy syncs = %d, want 0", l2.Syncs())
	}
	l2.Close()
}

func TestAppendAfterClose(t *testing.T) {
	l, _ := Open(tempPath(t), Options{})
	l.Close()
	if err := l.Append("SET", []byte("a"), []byte("1")); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestEverySecFlusherSyncs(t *testing.T) {
	if testing.Short() {
		t.Skip("waits >1s for the background flusher")
	}
	l, _ := Open(tempPath(t), Options{Policy: SyncEverySec})
	defer l.Close()
	l.Append("SET", []byte("a"), []byte("1"))
	testutil.Eventually(t, 3*time.Second, 20*time.Millisecond, func() bool {
		return l.Syncs() > 0
	}, "background flusher never synced")
}

func TestConcurrentAppends(t *testing.T) {
	path := tempPath(t)
	l, _ := Open(path, Options{})
	var wg sync.WaitGroup
	const goroutines, per = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append("SET", []byte(fmt.Sprintf("k%d", g)), []byte("v")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	if got := loadAll(t, path, nil); len(got) != goroutines*per {
		t.Fatalf("got %d records, want %d", len(got), goroutines*per)
	}
}

func TestPropertyRoundTripArbitraryPayloads(t *testing.T) {
	// Property: arbitrary binary args survive append+load, in order, with
	// or without encryption.
	f := func(payloads [][]byte, encrypt bool) bool {
		if len(payloads) == 0 {
			return true
		}
		dir, err := os.MkdirTemp("", "aofprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "a.aof")
		var key []byte
		if encrypt {
			key = bytes.Repeat([]byte{0xAB}, 32)
		}
		l, err := Open(path, Options{Key: key})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if err := l.Append("OP", p); err != nil {
				return false
			}
		}
		if l.Close() != nil {
			return false
		}
		i := 0
		n, err := Load(path, key, func(name string, args [][]byte) error {
			if name != "OP" || len(args) != 1 || !bytes.Equal(args[0], payloads[i]) {
				return fmt.Errorf("mismatch at %d", i)
			}
			i++
			return nil
		})
		return err == nil && n == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if SyncAlways.String() != "always" || SyncEverySec.String() != "everysec" || SyncNo.String() != "no" {
		t.Fatal("policy names wrong")
	}
}

// TestDurabilityUnderConcurrency runs, on one Log and its key file,
// appenders, Size/Syncs readers, the once-a-second loop (everysec),
// explicit Syncs, key-slot writes, Rewrites and a Close that lands in the
// middle of all of them. Syncs fsync outside the lock appends take, so
// under -race this is the check that no descriptor is fsynced while a swap
// or Close replaces or closes it. Appenders and Rewrite share a gate, as
// the compliance layer serialises its writes around a compaction: the
// snapshot holds every record acknowledged so far. After Close every
// acknowledged record replays and no error has stuck.
func TestDurabilityUnderConcurrency(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		run    time.Duration
	}{{SyncEverySec, 1100 * time.Millisecond}, {SyncAlways, 100 * time.Millisecond}} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "appendonly.aof")
			keys, err := OpenKeys(path+".keys", nil, func(string, []byte, uint64) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			defer keys.Close()
			if err := keys.Start(); err != nil {
				t.Fatal(err)
			}
			l, err := Open(path, Options{Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			l.SyncFirst(keys)

			var (
				gate  sync.RWMutex // appenders share it, Rewrite holds it alone
				ackMu sync.Mutex
				acked [][]byte
				wg    sync.WaitGroup
				done  = make(chan struct{})
			)
			loop := func(f func(i int) bool) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						if !f(i) {
							return
						}
					}
				}()
			}
			for g := 0; g < 4; g++ {
				loop(func(i int) bool {
					k := []byte(fmt.Sprintf("k%d-%d", g, i))
					gate.RLock()
					defer gate.RUnlock()
					if err := l.Append("SET", k, []byte("v")); err != nil {
						if err != errClosed {
							t.Errorf("append: %v", err)
						}
						return false
					}
					ackMu.Lock()
					acked = append(acked, k)
					ackMu.Unlock()
					return true
				})
			}
			loop(func(int) bool { _, _ = l.Size(), l.Syncs(); return true })
			loop(func(int) bool {
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return false
				}
				time.Sleep(time.Millisecond)
				return true
			})
			loop(func(i int) bool {
				owner := fmt.Sprintf("owner-%d", i%8)
				if err := keys.Put(owner, uint64(i), bytes.Repeat([]byte{byte(i)}, WrappedKeySize)); err != nil {
					t.Errorf("key put: %v", err)
					return false
				}
				time.Sleep(time.Millisecond)
				return true
			})
			loop(func(int) bool {
				gate.Lock()
				err := l.Rewrite(func(emit func(string, ...[]byte) error) error {
					for _, k := range acked {
						if err := emit("SET", k, []byte("v")); err != nil {
							return err
						}
					}
					return nil
				})
				gate.Unlock()
				if err != nil {
					if err != errClosed {
						t.Errorf("rewrite: %v", err)
					}
					return false
				}
				time.Sleep(10 * time.Millisecond)
				return true
			})

			time.Sleep(tc.run)
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			close(done)
			wg.Wait()
			if err := l.LastErr(); err != nil {
				t.Fatalf("an error stuck: %v", err)
			}
			got := map[string]bool{}
			for _, r := range loadAll(t, path, nil) {
				got[string(r.args[0])] = true
			}
			if len(acked) == 0 {
				t.Fatal("no append was acknowledged")
			}
			for _, k := range acked {
				if !got[string(k)] {
					t.Fatalf("acknowledged %s is not in the log (%d acknowledged, %d replayed)", k, len(acked), len(got))
				}
			}
		})
	}
}
