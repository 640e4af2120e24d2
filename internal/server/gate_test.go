package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/internal/store"
	"gdprstore/pkg/gdprkv"
)

// The command gate (complianceMiddleware, DESIGN.md §3) is the one place a
// command is admitted or refused before its handler runs. These tests pin
// its table, the refusals that close the raw-engine and admin paths on a
// compliant store, and the paths that must keep working through it.

// gateClass is how the gate sees a command: by its flags.
func gateClass(f Flag) string {
	switch {
	case f&FlagGDPR != 0:
		return "gdpr"
	case f&FlagNoCompliance != 0:
		return "raw"
	case f&FlagAdmin != 0 && f&FlagReadonly != 0:
		return "inspect"
	case f&FlagAdmin != 0:
		return "admin"
	}
	return "open"
}

// gateRoles are the four connections of the gate table: one that never
// sent AUTH, then a processor, a regulator and a controller.
var gateRoles = []struct{ name, id string }{
	{"no AUTH", ""}, {"processor", "svc"}, {"regulator", "dpa"}, {"controller", "controller"},
}

// gateTable is DESIGN.md §3's table: class × store mode × principal (in
// gateRoles order) → what the gate does.
var gateTable = map[string]map[string][4]string{
	"gdpr":    {"strict": {"DENIED", "REACHED", "REACHED", "REACHED"}, "baseline": {"BASELINE", "BASELINE", "BASELINE", "BASELINE"}},
	"raw":     {"strict": {"DENIED", "DENIED", "DENIED", "DENIED"}, "baseline": {"REACHED", "REACHED", "REACHED", "REACHED"}},
	"admin":   {"strict": {"DENIED", "DENIED", "DENIED", "REACHED"}, "baseline": {"REACHED", "REACHED", "REACHED", "REACHED"}},
	"inspect": {"strict": {"DENIED", "DENIED", "REACHED", "REACHED"}, "baseline": {"REACHED", "REACHED", "REACHED", "REACHED"}},
	"open":    {"strict": {"REACHED", "REACHED", "REACHED", "REACHED"}, "baseline": {"REACHED", "REACHED", "REACHED", "REACHED"}},
}

// TestGateTable runs every registered command on a Strict and a Baseline
// server from the four gateRoles connections, with each handler but those
// of the client's handshake (AUTH, PURPOSE, PING) replaced by a stub that
// answers REACHED, so the reply shows
// what the gate decided. Each refusal by the gate writes exactly one denied
// trail record, the refusal of a GDPR command before AUTH too. The
// stubs live only as long as the test, and this package's tests never run
// in parallel, so no other test meets them.
func TestGateTable(t *testing.T) {
	for name, want := range map[string]string{
		"GET": "raw", "SET": "raw", "PERSIST": "raw", "KEYS": "raw", "SCAN": "raw",
		"EXPIRE": "open", "DBSIZE": "inspect", "INFO": "inspect", "CLUSTER": "open",
		"FLUSHALL": "admin", "ACL": "admin", "COMPACT": "admin", "PSYNC": "admin", "RESTOREKEY": "admin",
		"GGET": "gdpr", "FORGETUSER": "gdpr",
	} {
		if got := gateClass(commandTable[name].Flags); got != want {
			t.Errorf("%s is %s at the gate, want %s", name, got, want)
		}
	}
	reached := resp.SimpleStringValue("REACHED")
	for _, c := range commandTable {
		if c.Name == "AUTH" || c.Name == "PURPOSE" || c.Name == "PING" {
			continue // the client's handshake
		}
		h := c.Handler
		c.Handler = func(*Ctx) (resp.Value, error) { return reached, nil }
		t.Cleanup(func() { c.Handler = h })
	}
	for mode, cfg := range map[string]core.Config{"strict": core.Strict(""), "baseline": core.Baseline()} {
		srv, _ := startServer(t, cfg)
		st := srv.Store()
		st.ACL().AddPrincipal(acl.Principal{ID: "svc", Role: acl.RoleProcessor})
		st.ACL().AddPrincipal(acl.Principal{ID: "dpa", Role: acl.RoleRegulator})
		if err := st.ACL().AddGrant(acl.Grant{Principal: "svc", Purpose: "*"}); err != nil {
			t.Fatal(err)
		}
		for i, role := range gateRoles {
			c := tdial(t, srv.Addr())
			if role.id != "" {
				if err := c.Auth(role.id); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range commandNames() {
				cmd := commandTable[name]
				args := []string{name}
				for len(args) <= cmd.MinArgs {
					args = append(args, "x")
				}
				if name == "AUTH" {
					args[1] = role.id // the connection keeps its principal
				}
				denied := func() int {
					if st.Trail() == nil {
						return 0
					}
					recs, err := st.Trail().Query(audit.Filter{Op: name, Actor: role.id, Outcome: audit.OutcomeDenied})
					if err != nil {
						t.Fatal(err)
					}
					return len(recs)
				}
				before := denied()
				got := gateOutcome(c.Do(args...))
				class := gateClass(cmd.Flags)
				if want := gateTable[class][mode][i]; got != want {
					t.Errorf("%s: %s (%s) from %s: %s, want %s", mode, name, class, role.name, got, want)
				}
				wantRecs := 0
				if got == "DENIED" {
					wantRecs = 1
				}
				if n := denied() - before; n != wantRecs {
					t.Errorf("%s: %s from %s wrote %d denied trail records, want %d", mode, name, role.name, n, wantRecs)
				}
			}
		}
	}
}

// gateOutcome names a reply as the gate table does: the code of a refusal,
// or REACHED for a command that reached its handler (the handshake's answer
// OK or PONG).
func gateOutcome(v resp.Value, err error) string {
	switch {
	case errors.Is(err, gdprkv.ErrDenied):
		return "DENIED"
	case errors.Is(err, gdprkv.ErrBaseline):
		return "BASELINE"
	case err != nil:
		return err.Error()
	case v.Text() == "OK" || v.Text() == "PONG":
		return "REACHED"
	}
	return v.Text()
}

// TestGateProbe: on a Strict server, a connection that never sent AUTH can
// read, re-time, overwrite or flush no record and grant itself nothing. A
// controller's record keeps its value, deadline, owner and metadata, and
// each refusal writes exactly one denied trail record.
func TestGateProbe(t *testing.T) {
	srv, anon := startServer(t, core.Strict(""))
	st := srv.Store()
	ctl := tdial(t, srv.Addr())
	ctl.Auth("controller")
	ctl.Purpose("billing")
	const key = "pd:alice:1"
	if err := ctl.GPut(key, []byte("secret"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	meta, err := ctl.Do("GETMETA", key)
	if err != nil {
		t.Fatal(err)
	}
	deadline, _ := st.Engine().Deadline(key)
	if _, err := anon.GGet(key); !errors.Is(err, gdprkv.ErrDenied) {
		t.Errorf("GGET before AUTH = %v, want ErrDenied", err)
	}
	for _, cmd := range [][]string{
		{"GET", key}, {"PERSIST", key}, {"TTL", key}, {"SET", key, "mallory"}, {"DEL", key},
		{"KEYS", "*"}, {"DBSIZE"}, {"ACL", "ADDPRINCIPAL", "mallory", "controller"},
		{"COMPACT"}, {"FLUSHALL"}, {"EXPIRE", key, "1"},
	} {
		if v, err := anon.Do(cmd...); !errors.Is(err, gdprkv.ErrDenied) {
			t.Errorf("%v before AUTH = %v, %v; want ErrDenied", cmd, v, err)
		}
		recs, err := st.Trail().Query(audit.Filter{Op: cmd[0], Outcome: audit.OutcomeDenied})
		if err != nil || len(recs) != 1 || recs[0].Actor != "" {
			t.Errorf("%s: denied trail records %+v, %v; want one, of no actor", cmd[0], recs, err)
		}
	}
	if v, err := ctl.GGet(key); err != nil || string(v) != "secret" {
		t.Errorf("GGET by the controller = %q, %v; want secret", v, err)
	}
	if d, ok := st.Engine().Deadline(key); !ok || !d.Equal(deadline) {
		t.Errorf("deadline %v, %v after the probe; want %v", d, ok, deadline)
	}
	if m, err := ctl.Do("GETMETA", key); err != nil || m.Text() != meta.Text() {
		t.Errorf("metadata %q, %v after the probe; want %q", m.Text(), err, meta.Text())
	}
	if _, ok := st.ACL().Principal("mallory"); ok {
		t.Error("mallory became a principal")
	}
}

// TestGateRefusesWhatNoPrincipalMayRun is the gate's property: a seeded
// generator draws command sequences from every registered command, over
// keys that include owner records' keys, and sends them from connections
// that never authenticate as a registered principal (AUTH takes only
// unknown names) to a Strict server holding a few subjects. Afterwards the
// store's records, their deadlines and owners, the principals and grants
// and the AOF's bytes are as they were, and every trail record the
// sequences wrote is a denial.
func TestGateRefusesWhatNoPrincipalMayRun(t *testing.T) {
	cfg := core.Strict("")
	cfg.AOFPath = filepath.Join(t.TempDir(), "a.aof")
	srv, _ := startServer(t, cfg)
	st := srv.Store()
	ctl := tdial(t, srv.Addr())
	ctl.Auth("controller")
	ctl.Purpose("billing")
	st.ACL().AddPrincipal(acl.Principal{ID: "svc-9f2", Role: acl.RoleProcessor})
	if err := st.ACL().AddGrant(acl.Grant{Principal: "svc-9f2", Purpose: "*"}); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []string{"alice", "bob", "carol"} {
		for i := 0; i < 2; i++ {
			if err := ctl.GPut(fmt.Sprintf("pd:%s:%d", owner, i), []byte("v-"+owner), gdprkv.PutOptions{Owner: owner, Purposes: []string{"billing"}, TTL: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ctl.Object("bob", "ads"); err != nil {
		t.Fatal(err)
	}
	words := []string{
		"pd:alice:0", "pd:bob:1", "pd:carol:9", core.OwnerKey("alice"), core.OwnerKey("bob"), "alice", "bob",
		"mallory", "subject", "processor", "controller", "regulator", "billing", "ads", "*", "0", "1", "60", "-1", "?",
		"ADDPRINCIPAL", "DELPRINCIPAL", "GRANT", "REVOKE", "OWNER", "PURPOSES", "TTL", "EX", "KEEPTTL", "MATCH", "COUNT",
		"SETSLOT", "SETNODE", "MIGRATESLOT", "GETKEYSINSLOT", "TOPOLOGY", "INFO", "HELP", "NO", "ONE", "GREC", "SETEX",
	}
	dump := func() string {
		var b strings.Builder
		err := st.Engine().SnapshotRecords(func(k string, e store.Entry) error {
			fmt.Fprintf(&b, "%q %x %d", k, e.Value, e.Deadline.UnixNano())
			if e.Record != nil {
				fmt.Fprintf(&b, " %+v %d %d", *e.Record.Policy, e.Record.Created, e.Record.Epoch)
			}
			b.WriteByte('\n')
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range append(words, "controller", "svc-9f2") {
			if p, ok := st.ACL().Principal(id); ok {
				fmt.Fprintf(&b, "principal %s %v %v\n", id, p.Role, st.ACL().Grants(id))
			}
		}
		aof, err := os.ReadFile(cfg.AOFPath)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s%x", b.String(), aof)
	}
	trail := func() []audit.Record {
		recs, err := st.Trail().Query(audit.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	names := commandNames()
	want, seen := dump(), len(trail())
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := tdial(t, srv.Addr())
		var sent [][]string
		for i := 0; i < 25; i++ {
			cmd := commandTable[names[rng.Intn(len(names))]]
			args := []string{cmd.Name}
			n := cmd.MinArgs + rng.Intn(3)
			if cmd.MaxArgs >= 0 {
				n = min(n, cmd.MaxArgs)
			}
			for len(args) <= n {
				args = append(args, words[rng.Intn(len(words))])
			}
			if cmd.Name == "AUTH" {
				if _, known := st.ACL().Principal(args[1]); known {
					continue
				}
			}
			sent = append(sent, args)
			c.Do(args...)
		}
		c.Close()
		if got := dump(); got != want {
			t.Fatalf("seed %d changed the store, its principals or its AOF; sent %q", seed, sent)
		}
		recs := trail()
		for _, r := range recs[seen:] {
			if r.Outcome != audit.OutcomeDenied {
				t.Fatalf("seed %d wrote %+v, not a denial; sent %q", seed, r, sent)
			}
		}
		seen = len(recs)
	}
}

// TestGatePathsThatStayOpen: a processor's cluster client bootstraps from
// CLUSTER TOPOLOGY on enforcing nodes, and writes and reads as usual,
// while the topology-changing subcommands stay a controller's.
// TestClusterPeerIdentityPerCall covers a controller's MIGRATESLOT, whose
// pipelined AUTH and RESTOREKEYs reach the destination through the gate,
// and TestPSYNCRequiresAuthUnderACL a replica's handshake as a controller.
func TestGatePathsThatStayOpen(t *testing.T) {
	srvs, stores, m := startCluster(t, 2)
	for _, st := range stores {
		st.ACL().SetEnforce(true)
		st.ACL().AddPrincipal(acl.Principal{ID: "svc", Role: acl.RoleProcessor})
		if err := st.ACL().AddGrant(acl.Grant{Principal: "svc", Purpose: "service"}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	c, err := gdprkv.Dial(ctx, srvs[0].Addr(), gdprkv.WithCluster(srvs[1].Addr()),
		gdprkv.WithActor("svc"), gdprkv.WithPurpose("service"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, node := range []string{"n1", "n2"} {
		owner := ownerOn(t, m, node)
		key := "pd:{" + owner + "}:1"
		if err := c.GPut(ctx, key, []byte("v"), gdprkv.PutOptions{Owner: owner, Purposes: []string{"service"}}); err != nil {
			t.Fatalf("GPut on %s: %v", node, err)
		}
		if v, err := c.GGet(ctx, key); err != nil || string(v) != "v" {
			t.Fatalf("GGet on %s = %q, %v", node, v, err)
		}
	}
	if st := c.Stats(); st.Redirects != 0 || st.SlotRefreshes != 0 {
		t.Fatalf("a bootstrapped processor followed redirects: %+v", st)
	}
	for _, sub := range [][]string{{"SETSLOT", "1", "STABLE"}, {"SETNODE", "n2", "127.0.0.1:1"}, {"GETKEYSINSLOT", "1", "1"}, {"MIGRATESLOT", "1"}} {
		if _, err := c.Do(ctx, append([]string{"CLUSTER"}, sub...)...); !errors.Is(err, gdprkv.ErrDenied) {
			t.Errorf("CLUSTER %s by a processor = %v, want ErrDenied", sub[0], err)
		}
	}
}

// TestDBSizeSkipsShreddedRecords: on an envelope store, FORGETUSER
// shreds the subject's key and leaves the ciphertext to the sweep; DBSIZE
// counts only what a client can still read, so it answers 0 before the
// sweep has run.
func TestDBSizeSkipsShreddedRecords(t *testing.T) {
	cfg := core.Strict("")
	cfg.Envelope, cfg.MasterKey = true, bytes.Repeat([]byte{7}, 32)
	srv, c := startServer(t, cfg)
	c.Auth("controller")
	c.Purpose("billing")
	for i := 0; i < 2; i++ {
		if err := c.GPut(fmt.Sprintf("pd:bob:%d", i), []byte("v"), gdprkv.PutOptions{Owner: "bob", Purposes: []string{"billing"}, TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.ForgetUser("bob"); err != nil || n != 2 {
		t.Fatalf("FORGETUSER bob = %d, %v; want 2", n, err)
	}
	if held := srv.Store().Engine().Len(); held < 2 {
		t.Fatalf("the engine holds %d keys: the sweep ran before DBSIZE could be asked", held)
	}
	if v, err := c.Do("DBSIZE"); err != nil || v.Int != 0 {
		t.Fatalf("DBSIZE after FORGETUSER = %d, %v; want 0", v.Int, err)
	}
	if st := srv.Store().ErasureStats(); st.PendingRecords != 2 {
		t.Fatalf("pending records %d, want the 2 awaiting the sweep", st.PendingRecords)
	}
}
