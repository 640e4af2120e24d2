//go:build ignore

// Command legacyfixture writes the compatibility fixtures of ISSUE 18 with
// the code of the commit it is built in. It was run at the parent commit
// (fb120cb), whose writers emit SETEX/MSETEX + JSON GMETA/GMETAB journal
// records and a JSONL audit trail:
//
//	cp gen_legacy.go <parent checkout>/cmd/legacyfixture/main.go
//	cd <parent checkout> && go run ./cmd/legacyfixture/main.go <outdir>
//
// It leaves <outdir>/legacy.aof and <outdir>/legacy-trail.jsonl. The clock
// is virtual and the master key fixed, so a test can reopen both files
// under the same configuration; ciphertext nonces are random, so a second
// run yields different (equally valid) bytes.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
	"gdprstore/internal/core"
)

func main() {
	out := os.Args[1]
	must(os.MkdirAll(out, 0o755))
	aofPath := filepath.Join(out, "legacy.aof")
	trailPath := filepath.Join(out, "legacy-trail.jsonl")
	os.Remove(aofPath)
	os.Remove(trailPath)

	vc := clock.NewVirtual(time.Date(2026, 9, 25, 12, 0, 0, 0, time.UTC))
	cfg := core.EventualFull(trailPath)
	cfg.AOFPath = aofPath
	cfg.AOFSync = core.Ptr(aof.SyncNo)
	cfg.Envelope = true
	cfg.MasterKey = []byte("legacy-fixture-master-key-32byte")
	cfg.Clock = vc
	cfg.DefaultLocation = "eu-west"
	st, err := core.Open(cfg)
	must(err)
	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	for _, o := range []string{"alice", "bob", "carol", "dave"} {
		st.ACL().AddPrincipal(acl.Principal{ID: o, Role: acl.RoleSubject})
	}
	ctl := core.Ctx{Actor: "controller", Purpose: "billing"}
	tick := func() { vc.Advance(1500 * time.Millisecond) }

	// Put, with every metadata field in use on one record.
	must(st.Put(ctl, "pd:alice:1", []byte("alice-one"), core.PutOptions{
		Owner: "alice", Purposes: []string{"billing", "support"}, TTL: 90 * 24 * time.Hour,
		Origin: "signup-form", SharedWith: []string{"processor-a"}, AutomatedDecisions: true,
	}))
	tick()
	must(st.Put(ctl, "pd:alice:2", []byte("alice-two"), core.PutOptions{Owner: "alice", TTL: 30 * 24 * time.Hour}))
	tick()
	must(st.Put(ctl, "pd:bob:1", []byte("bob-one\n{not json}"), core.PutOptions{
		Owner: "bob", ExpireAt: time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC)}))
	tick()
	// GMPUT.
	must(st.PutBatch(ctl, []core.BatchEntry{
		{Key: "pd:carol:1", Value: []byte("carol-one")},
		{Key: "pd:carol:2", Value: []byte("carol-two")},
		{Key: "pd:carol:3", Value: []byte("carol-three")},
	}, core.PutOptions{Owner: "carol", Purposes: []string{"billing"}, TTL: 7 * 24 * time.Hour}))
	tick()
	// Expire.
	must(st.Expire(ctl, "pd:alice:2", 48*time.Hour))
	tick()
	// OBJECT, then a Put that inherits the standing objection.
	must(st.Object(core.Ctx{Actor: "alice"}, "alice", "support"))
	tick()
	must(st.Put(ctl, "pd:alice:3", []byte("alice-three"), core.PutOptions{
		Owner: "alice", Purposes: []string{"billing", "support"}, TTL: 24 * time.Hour}))
	tick()
	// An audited read and a missing read, for the trail.
	if _, err := st.Get(ctl, "pd:alice:1"); err != nil {
		must(err)
	}
	st.Get(ctl, "pd:nobody:1")
	tick()
	// FORGETUSER (crypto-shred), left unswept so replay re-derives it.
	must(st.Put(ctl, "pd:bob:2", []byte("bob-two"), core.PutOptions{Owner: "bob", TTL: time.Hour}))
	tick()
	_, err = st.Forget(core.Ctx{Actor: "bob"}, "bob")
	must(err)
	tick()
	// A reinstated owner: erased, reinstated, writing again under a new epoch.
	must(st.Put(ctl, "pd:dave:1", []byte("dave-old"), core.PutOptions{Owner: "dave", TTL: time.Hour}))
	tick()
	_, err = st.Forget(core.Ctx{Actor: "dave"}, "dave")
	must(err)
	tick()
	must(st.Reinstate(ctl, "dave"))
	tick()
	must(st.Put(ctl, "pd:dave:2", []byte("dave-new"), core.PutOptions{Owner: "dave", TTL: 12 * time.Hour}))
	tick()
	// A delete, so the log carries an engine DEL.
	must(st.Delete(ctl, "pd:carol:2"))
	tick()
	// Concurrent audited reads: the parent's two audit workers write their
	// batches in completion order, so this stretch of the trail is not in
	// sequence order.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := st.Get(ctl, "pd:alice:1"); err != nil {
					must(err)
				}
			}
		}()
	}
	wg.Wait()
	must(st.Close())
	fmt.Println("wrote", aofPath, trailPath)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
