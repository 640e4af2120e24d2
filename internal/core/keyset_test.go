package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkOrderedKeys fails t unless o holds exactly model's keys, ascending,
// counted, in non-empty chunks of at most chunkKeys keys.
func checkOrderedKeys(t *testing.T, o *orderedKeys, model map[string]bool) {
	t.Helper()
	for i, c := range o.chunks {
		if len(c) == 0 || len(c) > chunkKeys {
			t.Fatalf("chunk %d of %d holds %d keys, want 1..%d", i, len(o.chunks), len(c), chunkKeys)
		}
	}
	got := o.appendTo(nil)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("keys not strictly ascending at %d: %q, %q", i, got[i-1], got[i])
		}
	}
	if o.n != len(model) || len(got) != len(model) {
		t.Fatalf("set counts %d and lists %d keys, the model holds %d", o.n, len(got), len(model))
	}
	for _, k := range got {
		if !model[k] {
			t.Fatalf("set holds %q, the model does not", k)
		}
	}
}

// TestOrderedKeysModel drives the index's ordered set through ascending
// adds (the tail path), random adds, duplicate adds and removes (splits in
// the middle), removes down to empty (dropped chunks) and descending adds
// (splits at the front), checking it against a map after every step.
func TestOrderedKeysModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4601))
	const space = 600
	var o orderedKeys
	model := map[string]bool{}
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	add := func(k string) { o.add(k); model[k] = true; checkOrderedKeys(t, &o, model) }
	remove := func(k string) { o.remove(k); delete(model, k); checkOrderedKeys(t, &o, model) }

	for i := 0; i < space/2; i++ {
		add(key(i))
	}
	for step := 0; step < 3000; step++ {
		if k := key(rng.Intn(space)); rng.Intn(5) < 3 {
			add(k)
		} else {
			remove(k)
		}
	}
	for _, i := range rng.Perm(space) {
		remove(key(i))
	}
	if len(o.chunks) != 0 {
		t.Fatalf("an empty set keeps %d chunks", len(o.chunks))
	}
	for i := space - 1; i >= 0; i-- {
		add(key(i))
	}
}

// TestLargeOwnerErasure puts 100 000 keys of one owner, in random order,
// and erases them both ways: an eager Forget without envelope encryption,
// and a crypto-shred the sweep then reclaims. Neither leaves an index entry
// behind, and the sets stay chunked on the way.
func TestLargeOwnerErasure(t *testing.T) {
	const n = 100_000
	keys := make([]string, n)
	for i, p := range rand.New(rand.NewSource(4602)).Perm(n) {
		keys[i] = fmt.Sprintf("big:%06d", p)
	}
	for _, envelope := range []bool{false, true} {
		t.Run(fmt.Sprintf("envelope=%v", envelope), func(t *testing.T) {
			s, err := Open(erasureCfg(func(c *Config) { c.Envelope = envelope }))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := Ctx{Actor: "app", Purpose: "service"}
			for _, k := range keys {
				if err := s.Put(ctx, k, []byte("v"), PutOptions{Owner: "big", Purposes: []string{"service"}}); err != nil {
					t.Fatal(err)
				}
			}
			model := make(map[string]bool, n)
			for _, k := range keys {
				model[k] = true
			}
			for _, set := range []*keySet{stripeOf(s.ix.byOwner, "big").m["big"], stripeOf(s.ix.byPurpose, "service").m["service"]} {
				if set == nil {
					t.Fatal("an index set is missing")
				}
				checkOrderedKeys(t, &set.keys, model)
			}
			if got, err := s.KeysByPurpose(ctx, "service"); err != nil || len(got) != n || !sort.StringsAreSorted(got) {
				t.Fatalf("KeysByPurpose = %d keys (sorted %v), %v; want %d ascending", len(got), sort.StringsAreSorted(got), err, n)
			}
			if erased, err := s.Forget(Ctx{Actor: "big"}, "big"); err != nil || erased != n {
				t.Fatalf("Forget = %d, %v; want %d", erased, err, n)
			}
			if envelope {
				if sw := s.DrainErasure(); sw.Reclaimed != n {
					t.Fatalf("DrainErasure reclaimed %d records, want %d", sw.Reclaimed, n)
				}
			}
			if got := s.MetaCount(); got != 0 {
				t.Fatalf("MetaCount after erasure = %d, want 0", got)
			}
			if got := s.ix.purposeKeys("service"); len(got) != 0 {
				t.Fatalf("purpose set after erasure holds %d keys, want none", len(got))
			}
			if got := s.ix.ownerKeys(nil, "big"); len(got) != 0 {
				t.Fatalf("owner set after erasure holds %d keys, want none", len(got))
			}
		})
	}
}
