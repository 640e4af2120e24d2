package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

// TestMetadataEncodeDecodeRoundTrip is the property behind GREC journal
// records: any metadata survives encode/decode byte-identically in
// semantics.
func TestMetadataEncodeDecodeRoundTrip(t *testing.T) {
	f := func(owner, origin, loc string, purposes, objections, shared []string, auto bool, expUnix int64, creUnix int64) bool {
		m := Metadata{
			Owner: owner, Origin: origin, Location: loc,
			Purposes: purposes, Objections: objections, SharedWith: shared,
			AutomatedDecisions: auto,
			Expiry:             time.Unix(expUnix%1e9, 0).UTC(),
			Created:            time.Unix(creUnix%1e9, 0).UTC(),
		}
		got, err := decodeMetadata(appendMetadata(nil, &m))
		if err != nil {
			return false
		}
		// The codec drops nil-vs-empty distinctions; normalise.
		norm := func(s []string) []string {
			if len(s) == 0 {
				return nil
			}
			return s
		}
		m.Purposes, got.Purposes = norm(m.Purposes), norm(got.Purposes)
		m.Objections, got.Objections = norm(m.Objections), norm(got.Objections)
		m.SharedWith, got.SharedWith = norm(m.SharedWith), norm(got.SharedWith)
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayEquivalenceProperty is the central durability invariant: for
// any random sequence of compliance-layer operations, with a compaction
// halfway, closing the store and replaying its AOF reconstructs an
// equivalent store — same live keys, values, metadata owners, TTL presence,
// and objections — and so does a fresh store fed the live one's full-sync
// snapshot.
func TestReplayEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20190516))
	for trial := 0; trial < 15; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "prop.aof")
			vc := clock.NewVirtual(time.Unix(1_000_000, 0))
			cfg := persistentCfg(path, vc, func(c *Config) {
				if trial%3 == 1 {
					c.Envelope = true
					c.MasterKey = bytes.Repeat([]byte{byte(trial + 1)}, 32)
				}
				if trial%3 == 2 {
					c.AtRestKey = bytes.Repeat([]byte{byte(trial + 101)}, 32)
				}
			})
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			addPrincipals(s)
			owners := []string{"alice", "bob", "carol"}
			for _, o := range owners {
				s.ACL().AddPrincipal(acl.Principal{ID: o, Role: acl.RoleSubject})
			}

			nOps := 40 + rng.Intn(80)
			for i := 0; i < nOps; i++ {
				owner := owners[rng.Intn(len(owners))]
				key := fmt.Sprintf("pd:%s:%d", owner, rng.Intn(12))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					opts := PutOptions{Owner: owner, Purposes: []string{"p1", "p2"}[0 : 1+rng.Intn(2)]}
					if rng.Intn(2) == 0 {
						opts.TTL = time.Duration(1+rng.Intn(48)) * time.Hour
					}
					if err := s.Put(ctlCtx, key, []byte(fmt.Sprintf("v%d", i)), opts); err != nil {
						t.Fatalf("put: %v", err)
					}
				case 5:
					s.Delete(ctlCtx, key)
				case 6:
					s.Expire(ctlCtx, key, time.Duration(1+rng.Intn(24))*time.Hour)
				case 7:
					s.Object(Ctx{Actor: owner}, owner, "p2")
				case 8:
					s.Unobject(Ctx{Actor: owner}, owner, "p2")
				case 9:
					vc.Advance(time.Duration(rng.Intn(120)) * time.Minute)
				}
				if i == nOps/2 {
					if err := s.Compact(ctlCtx); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := snapshotState(t, s, owners)
			// A replica's full sync is the same state.
			fcfg := cfg
			fcfg.AOFPath = ""
			fresh, err := Open(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			addPrincipals(fresh)
			if err := s.StreamSnapshot(func(name string, args ...[]byte) error { return fresh.applyRecord(name, args) }, nil); err != nil {
				t.Fatal(err)
			}
			if synced := snapshotState(t, fresh, owners); !reflect.DeepEqual(before, synced) {
				t.Fatalf("full sync diverged:\nlive:   %#v\nsynced: %#v", before, synced)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			addPrincipals(s2)
			after := snapshotState(t, s2, owners)
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("replay diverged:\nbefore: %#v\nafter:  %#v", before, after)
			}
		})
	}
}

// state is the observable essence of a store for equivalence checking.
type state struct {
	Keys       []string
	Values     map[string]string
	Owners     map[string]string
	HasTTL     map[string]bool
	Objections map[string][]string
}

func snapshotState(t *testing.T, s *Store, owners []string) state {
	t.Helper()
	st := state{
		Values:     map[string]string{},
		Owners:     map[string]string{},
		HasTTL:     map[string]bool{},
		Objections: map[string][]string{},
	}
	for _, o := range owners {
		keys, err := s.OwnerKeys(ctlCtx, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			st.Keys = append(st.Keys, k)
			v, err := s.Get(Ctx{Actor: "controller", Purpose: "p1"}, k)
			if err != nil {
				// p1-objected or purpose mismatch: read as raw presence
				v = []byte("<unreadable:" + err.Error() + ">")
			}
			st.Values[k] = string(v)
			if m, err := s.Metadata(ctlCtx, k); err == nil {
				st.Owners[k] = m.Owner
			}
			_, ttlStatus := s.TTL(k)
			st.HasTTL[k] = ttlStatus == store.TTLSet
		}
		if obj := s.Objections(o); len(obj) > 0 {
			st.Objections[o] = obj
		}
	}
	sort.Strings(st.Keys)
	return st
}
