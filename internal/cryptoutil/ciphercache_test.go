package cryptoutil

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestKeyring(t *testing.T) *Keyring {
	t.Helper()
	kr, err := NewKeyring(bytes.Repeat([]byte{0x66}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

// cachedEpoch inspects the cache array: the epoch of the cipher a slot holds
// for owner, if one does.
func (kr *Keyring) cachedEpoch(owner string) (uint64, bool) {
	for i := range kr.ciphers {
		sl := &kr.ciphers[i]
		sl.mu.Lock()
		epoch, held := sl.epoch, sl.owner == owner
		sl.mu.Unlock()
		if held {
			return epoch, true
		}
	}
	return 0, false
}

// checkCipherCache verifies what the cache promises at every instant: a
// slot that holds an owner holds the cipher of the key the ring has for it
// now, at that key's epoch.
func (kr *Keyring) checkCipherCache() error {
	kr.mu.RLock()
	defer kr.mu.RUnlock()
	for i := range kr.ciphers {
		sl := &kr.ciphers[i]
		sl.mu.Lock()
		owner, epoch := sl.owner, sl.epoch
		sl.mu.Unlock()
		if owner == "" {
			continue
		}
		if dk, has := kr.keys[owner]; !has || dk.epoch != epoch {
			return fmt.Errorf("slot %d holds %q at epoch %d; ring: key %v at epoch %d",
				i, owner, epoch, has, dk.epoch)
		}
	}
	return nil
}

// TestCipherCacheShredEvicts: a hot owner's cipher is built once; when
// Shred returns no slot holds the owner, lookups fail, and a key made for
// the owner afterwards opens nothing the shredded one sealed.
func TestCipherCacheShredEvicts(t *testing.T) {
	kr := newTestKeyring(t)
	c, epoch, wrapped, err := kr.SealerFor("alice")
	if err != nil || wrapped == nil {
		t.Fatalf("first SealerFor: wrapped %v, err %v", wrapped != nil, err)
	}
	sealed, err := c.Seal(nil, []byte("pii"), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rc, e, ok := kr.CipherFor("alice")
		if !ok || e != epoch {
			t.Fatalf("CipherFor = epoch %d ok %v, want %d true", e, ok, epoch)
		}
		if pt, err := rc.Open(nil, sealed, []byte("k")); err != nil || string(pt) != "pii" {
			t.Fatalf("cached cipher opened %q, %v", pt, err)
		}
	}
	if hits, misses := kr.CipherStats(); hits != 5 || misses != 1 {
		t.Fatalf("hits %d misses %d, want 5 and 1", hits, misses)
	}
	if e, held := kr.cachedEpoch("alice"); !held || e != epoch {
		t.Fatalf("slot holds alice: %v at epoch %d, want true at %d", held, e, epoch)
	}

	kr.Shred("alice")
	if _, held := kr.cachedEpoch("alice"); held {
		t.Fatal("a slot still holds alice's cipher after Shred returned")
	}
	if _, _, ok := kr.CipherFor("alice"); ok {
		t.Fatal("CipherFor found a key after Shred")
	}
	if _, held := kr.cachedEpoch("alice"); held {
		t.Fatal("a failed lookup installed a cipher for a shredded owner")
	}

	c2, _, wrapped, err := kr.SealerFor("alice")
	if err != nil || wrapped == nil {
		t.Fatalf("SealerFor after Shred: wrapped %v err %v", wrapped != nil, err)
	}
	if _, err := c2.Open(nil, sealed, []byte("k")); err != ErrCorrupt {
		t.Fatalf("the new key's cipher opened the shredded record: %v", err)
	}
	if err := kr.checkCipherCache(); err != nil {
		t.Fatal(err)
	}
}

// TestCipherCacheCollision: two owners that share a slot evict each other
// and each still seals and opens under its own key.
func TestCipherCacheCollision(t *testing.T) {
	kr := newTestKeyring(t)
	a := "owner-0"
	b := ""
	for i := 1; b == ""; i++ {
		if o := fmt.Sprintf("owner-%d", i); kr.slotFor(o) == kr.slotFor(a) {
			b = o
		}
	}
	sealed := map[string][]byte{}
	for round := 0; round < 4; round++ {
		for _, owner := range []string{a, b} {
			c, _, _, err := kr.SealerFor(owner)
			if err != nil {
				t.Fatal(err)
			}
			if _, held := kr.cachedEpoch(owner); !held {
				t.Fatalf("round %d: %s not cached after its own lookup", round, owner)
			}
			if prev := sealed[owner]; prev != nil {
				if pt, err := c.Open(nil, prev, nil); err != nil || string(pt) != owner {
					t.Fatalf("round %d: %s's cipher opened its record as %q, %v", round, owner, pt, err)
				}
			}
			if other := sealed[map[string]string{a: b, b: a}[owner]]; other != nil {
				if _, err := c.Open(nil, other, nil); err != ErrCorrupt {
					t.Fatalf("round %d: %s's cipher opened the other owner's record: %v", round, owner, err)
				}
			}
			if sealed[owner], err = c.Seal(nil, []byte(owner), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hits, misses := kr.CipherStats(); hits != 0 || misses != 8 {
		t.Fatalf("alternating colliding owners: hits %d misses %d, want 0 and 8", hits, misses)
	}
	// Shredding the owner that is not in the slot leaves the other's cipher.
	kr.Shred(a)
	if _, held := kr.cachedEpoch(b); !held {
		t.Fatal("shredding one owner evicted the owner it shares a slot with")
	}
}

// TestCipherCacheReplay: ImportAt and Shred, a replica's apply of a key's
// arrival and destruction, evict as the live Ensure/Shred do: a key
// imported over another at the same epoch is the one the next lookup
// prepares, and a shred leaves no slot behind.
func TestCipherCacheReplay(t *testing.T) {
	live := newTestKeyring(t)
	_, w1, _, err := live.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	c1, _, _ := live.CipherFor("alice")
	under1, _ := c1.Seal(nil, []byte("one"), nil)
	live.Shred("alice")
	_, w2, _, err := live.Ensure("alice")
	if err != nil {
		t.Fatal(err)
	}
	c2, _, _ := live.CipherFor("alice")
	under2, _ := c2.Seal(nil, []byte("two"), nil)

	kr := newTestKeyring(t)
	opens := func(sealed []byte) bool {
		c, _, ok := kr.CipherFor("alice")
		if !ok {
			return false
		}
		_, err := c.Open(nil, sealed, nil)
		return err == nil
	}
	if err := kr.ImportAt("alice", w1, 0); err != nil {
		t.Fatal(err)
	}
	if !opens(under1) || opens(under2) {
		t.Fatal("after GKEY(key 1) the cached cipher is not key 1's")
	}
	// A resync that replays the second GKEY without the shred between:
	// same owner and epoch, different key.
	if err := kr.ImportAt("alice", w2, 0); err != nil {
		t.Fatal(err)
	}
	if opens(under1) || !opens(under2) {
		t.Fatal("ImportAt over a cached key left the old key's cipher in the slot")
	}
	kr.Shred("alice")
	if _, held := kr.cachedEpoch("alice"); held || opens(under2) {
		t.Fatal("Shred left the owner's cipher cached")
	}
	if err := kr.ImportAt("alice", w2, 1); err != nil {
		t.Fatal(err)
	}
	if !opens(under2) {
		t.Fatal("ImportAt after Shred did not restore the key")
	}
	if got, _ := kr.cachedEpoch("alice"); got != 1 {
		t.Fatalf("replayed slot epoch %d, imported at 1", got)
	}
	if live.checkCipherCache() != nil || kr.checkCipherCache() != nil {
		t.Fatal(live.checkCipherCache(), kr.checkCipherCache())
	}
	// Every key in the ring is one a cipher can be prepared from.
	short, err := kr.master.Seal(nil, make([]byte, 16), []byte("wrap:alice"))
	if err != nil {
		t.Fatal(err)
	}
	if err := kr.ImportAt("alice", short, 1); err != ErrBadKeySize || !opens(under2) {
		t.Fatalf("importing a 16-byte key: %v, want ErrBadKeySize and the ring untouched", err)
	}
}

// TestCipherCacheShredRace: lookups for a few owners race the owners' key
// changes, each owner's key imported at one epoch after another and shredded
// in between, as a replica applies the stream. A lookup that succeeds
// returns the cipher of the epoch it reports (it opens what that epoch's key
// sealed), no slot holds an owner once Shred has returned, and at no
// instant does a slot hold an epoch other than the ring's. Run under -race.
func TestCipherCacheShredRace(t *testing.T) {
	kr := newTestKeyring(t)
	owners := []string{"alice", "bob", "carol"}
	const epochs, iters = 8, 400
	// wrapped[o][e] is owner o's key made at epoch e, and sealed[o][e] a
	// record sealed under it; the source ring has kr's master.
	src := newTestKeyring(t)
	wrapped, sealed := map[string][][]byte{}, map[string][][]byte{}
	for _, o := range owners {
		for e := 0; e < epochs; e++ {
			src.Shred(o)
			c, _, w, err := src.SealerFor(o)
			if err != nil {
				t.Fatal(err)
			}
			v, err := c.Seal(nil, []byte(o), nil)
			if err != nil {
				t.Fatal(err)
			}
			wrapped[o], sealed[o] = append(wrapped[o], w), append(sealed[o], v)
		}
	}
	var stop atomic.Bool
	var wg, checker sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				owner := owners[(g+i)%len(owners)]
				c, epoch, ok := kr.CipherFor(owner)
				if !ok {
					continue // shredded just now
				}
				if pt, err := c.Open(nil, sealed[owner][epoch], nil); err != nil || string(pt) != owner {
					t.Errorf("%s epoch %d: the cipher does not open what that epoch's key sealed: %q, %v", owner, epoch, pt, err)
					return
				}
			}
		}(g)
	}
	for _, owner := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := uint64(i % epochs)
				if err := kr.ImportAt(owner, wrapped[owner][e], e); err != nil {
					t.Error(err)
					return
				}
				kr.Shred(owner)
				if _, held := kr.cachedEpoch(owner); held {
					t.Errorf("a slot holds %s after Shred returned", owner)
					return
				}
			}
		}()
	}
	checker.Add(1)
	go func() {
		defer checker.Done()
		for !stop.Load() {
			if err := kr.checkCipherCache(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	checker.Wait()
}
