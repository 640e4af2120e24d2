package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/clock"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/pkg/gdprkv"
)

// startServer spins up a server over a store built from cfg, with the
// principal "controller" registered as a controller in process, as
// gdprkv-server -controller does, and returns a client that has not sent
// AUTH.
func startServer(t *testing.T, cfg core.Config) (*Server, *tclient) {
	t.Helper()
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	srv, err := Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, tdial(t, srv.Addr())
}

// setupPrincipals installs the standard principals through ACL commands on
// a connection of its own, as the controller; c's session is left as it was.
func setupPrincipals(t *testing.T, c *tclient) {
	t.Helper()
	admin := tdial(t, c.addr)
	for _, cmd := range [][]string{
		{"AUTH", "controller"},
		{"ACL", "ADDPRINCIPAL", "svc", "processor"},
		{"ACL", "ADDPRINCIPAL", "alice", "subject"},
		{"ACL", "GRANT", "svc", "billing"},
	} {
		if _, err := admin.Do(cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
}

func TestPingEcho(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("ECHO", "hello")
	if err != nil || v.Text() != "hello" {
		t.Fatalf("echo = %q, %v", v.Text(), err)
	}
}

func TestVanillaSetGetDel(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
	n, err := c.Del("k", "missing")
	if err != nil || n != 1 {
		t.Fatalf("del = %d, %v", n, err)
	}
	if _, err := c.Get("k"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("get deleted = %v", err)
	}
}

func TestSetEXAndTTL(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	if err := c.SetEX("k", []byte("v"), 100); err != nil {
		t.Fatal(err)
	}
	ttl, err := c.TTL("k")
	if err != nil || ttl <= 0 || ttl > 100 {
		t.Fatalf("ttl = %d, %v", ttl, err)
	}
	if ttl, _ := c.TTL("missing"); ttl != -2 {
		t.Fatalf("missing ttl = %d", ttl)
	}
	c.Set("plain", []byte("v"))
	if ttl, _ := c.TTL("plain"); ttl != -1 {
		t.Fatalf("plain ttl = %d", ttl)
	}
	ok, err := c.Expire("plain", 60)
	if err != nil || !ok {
		t.Fatalf("expire = %v, %v", ok, err)
	}
}

func TestScanThroughClient(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	for i := 0; i < 25; i++ {
		c.Set(fmt.Sprintf("user:%02d", i), []byte("v"))
	}
	var cursor uint64
	seen := 0
	for {
		keys, next, err := c.Scan(cursor, "user:*", 7)
		if err != nil {
			t.Fatal(err)
		}
		seen += len(keys)
		if next == 0 {
			break
		}
		cursor = next
	}
	if seen != 25 {
		t.Fatalf("scan saw %d keys", seen)
	}
}

func TestGDPRFlowOverNetwork(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	if err := c.Auth("controller"); err != nil {
		t.Fatal(err)
	}
	if err := c.Purpose("billing"); err != nil {
		t.Fatal(err)
	}
	err := c.GPut("user:alice:email", []byte("a@x.eu"), gdprkv.PutOptions{
		Owner: "alice", Purposes: []string{"billing"}, TTL: 3600 * time.Second, Origin: "signup",
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.GGet("user:alice:email")
	if err != nil || string(v) != "a@x.eu" {
		t.Fatalf("gget = %q, %v", v, err)
	}
	// Metadata round trip.
	mv, err := c.Do("GETMETA", "user:alice:email")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mv.Str, []byte(`"owner":"alice"`)) {
		t.Fatalf("meta = %s", mv.Str)
	}
	// Subject rights over the wire.
	recs, err := c.GetUser("alice")
	if err != nil || len(recs) != 1 {
		t.Fatalf("getuser = %v, %v", recs, err)
	}
	exp, err := c.ExportUser("alice")
	if err != nil || !bytes.Contains(exp, []byte("gdprstore-export/v1")) {
		t.Fatalf("export = %.60s, %v", exp, err)
	}
	n, err := c.ForgetUser("alice")
	if err != nil || n != 1 {
		t.Fatalf("forget = %d, %v", n, err)
	}
	if _, err := c.GGet("user:alice:email"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("forgotten gget = %v", err)
	}
}

func TestPurposeDeniedOverNetwork(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	c.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute})
	c.Purpose("marketing")
	_, err := c.GGet("k")
	if !errors.Is(err, gdprkv.ErrBadPurpose) {
		t.Fatalf("err = %v, want ErrBadPurpose (PURPOSEDENIED)", err)
	}
}

func TestACLDeniedOverNetwork(t *testing.T) {
	srv, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	c.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute})
	// A fresh connection that never AUTHs is an unknown principal: denied.
	c2 := tdial(t, srv.Addr())
	c2.Purpose("billing")
	_, gerr := c2.GGet("k")
	if !errors.Is(gerr, gdprkv.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied (DENIED)", gerr)
	}
}

func TestObjectionOverNetwork(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	c.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing", "ads"}, TTL: time.Minute})
	if err := c.Auth("alice"); err != nil {
		t.Fatal(err)
	}
	if err := c.Object("alice", "ads"); err != nil {
		t.Fatal(err)
	}
	c.Auth("controller")
	c.Purpose("ads")
	if _, err := c.GGet("k"); err == nil {
		t.Fatal("objected purpose served")
	}
	c.Auth("alice")
	if err := c.Unobject("alice", "ads"); err != nil {
		t.Fatal(err)
	}
	c.Auth("controller")
	if _, err := c.GGet("k"); err != nil {
		t.Fatalf("after unobject: %v", err)
	}
}

// TestPipelinedCommands writes a burst of commands before reading any
// reply, over a raw connection (the SDK is strictly request/reply; the
// wire protocol itself allows pipelining and the server must serve it).
func TestPipelinedCommands(t *testing.T) {
	srv, c := startServer(t, core.Baseline())
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := resp.NewWriter(conn)
	for i := 0; i < 100; i++ {
		if err := w.WriteCommand("SET", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := resp.NewReader(conn)
	for i := 0; i < 100; i++ {
		v, err := r.ReadValue()
		if err != nil || v.Text() != "OK" {
			t.Fatalf("reply %d = %+v, %v", i, v, err)
		}
	}
	v, _ := c.Do("DBSIZE")
	if v.Int != 100 {
		t.Fatalf("dbsize = %d", v.Int)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	_, err := c.Do("BOGUS")
	var se *gdprkv.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongArity(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	for _, cmd := range [][]string{
		{"GET"}, {"SET", "k"}, {"EXPIRE", "k"}, {"GETUSER"}, {"OBJECT", "o"},
	} {
		if _, err := c.Do(cmd...); err == nil {
			t.Errorf("%v accepted", cmd)
		}
	}
}

func TestInfo(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	if err := c.Auth("controller"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"compliant:true", "timing:real-time", "capability:full"} {
		if !strings.Contains(v.Text(), want) {
			t.Fatalf("INFO missing %q:\n%s", want, v.Text())
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc, err := gdprkv.Dial(ctx, srv.Addr(), gdprkv.WithPoolSize(1))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cc.Close()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				if err := cc.Set(ctx, k, []byte("v")); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				if _, err := cc.Get(ctx, k); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.Commands() < 1600 {
		t.Fatalf("commands = %d", srv.Commands())
	}
}

func TestBreachOverNetwork(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Do("ACL", "ADDPRINCIPAL", "dpa", "regulator")
	c.Purpose("billing")
	c.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute})
	c.GGet("k")
	c.Auth("dpa")
	from := time.Now().Add(-time.Hour).UTC().Format(time.RFC3339)
	to := time.Now().Add(time.Hour).UTC().Format(time.RFC3339)
	v, err := c.Do("BREACH", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(v.Str, []byte("alice")) {
		t.Fatalf("breach report: %s", v.Str)
	}
}

func TestBaselineRejectsGDPRCommands(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	_, err := c.GetUser("alice")
	if !errors.Is(err, gdprkv.ErrBaseline) {
		t.Fatalf("err = %v, want ErrBaseline (BASELINE)", err)
	}
}

// GETUSER over the wire answers exactly what the store's GetUser does, with
// envelope encryption on and off, beside records crypto-erased and awaiting
// the sweep and an expired key. Opening the values for a report never
// touches the engine's stored bytes: they are the same afterwards, every Get
// answers the report's value, and a second report of each kind matches the
// first.
func TestGetUserWireMatchesCore(t *testing.T) {
	for _, envelope := range []bool{true, false} {
		t.Run(fmt.Sprintf("envelope=%v", envelope), func(t *testing.T) {
			vc := clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
			srv, c := startServer(t, core.Config{
				Compliant: true, Capability: core.CapabilityPartial,
				Envelope: envelope, MasterKey: bytes.Repeat([]byte{0x5a}, 32), Clock: vc,
			})
			setupPrincipals(t, c)
			if err := c.Auth("controller"); err != nil {
				t.Fatal(err)
			}
			if err := c.Purpose("service"); err != nil {
				t.Fatal(err)
			}
			st := srv.store
			ctx := core.Ctx{Actor: "controller", Purpose: "service"}
			put := func(k, owner string, v []byte, ttl time.Duration) {
				t.Helper()
				if err := st.Put(ctx, k, v, core.PutOptions{Owner: owner, Purposes: []string{"service"}, TTL: ttl}); err != nil {
					t.Fatalf("put %s: %v", k, err)
				}
			}
			// Values from empty to 6 KB: alice's report, 82 KB, is larger than
			// a pooled report may stay.
			var keys []string
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("alice:%02d", i)
				put(k, "alice", bytes.Repeat([]byte{byte('a' + i%26)}, i*i*4), time.Hour)
				keys = append(keys, k)
			}
			put("alice:short", "alice", []byte("expires"), time.Minute)
			// bob is erased with his records left for the sweep (eagerly
			// deleted without envelope); carol writes one record after.
			put("bob:old1", "bob", []byte("erased one"), time.Hour)
			put("bob:old2", "bob", []byte("erased two"), time.Hour)
			if _, err := st.Forget(ctx, "bob"); err != nil {
				t.Fatal(err)
			}
			put("carol:new", "carol", []byte("after the erasure"), time.Hour)
			keys = append(keys, "carol:new")
			vc.Advance(2 * time.Minute)

			stored := func() map[string][]byte {
				out := map[string][]byte{}
				for _, k := range append(keys, "alice:short", "bob:old1", "bob:old2") {
					if v, ok := st.Engine().Get(k); ok {
						out[k] = v
					}
				}
				return out
			}
			before := stored()
			report := func(owner string) (wire, recs, vals map[string][]byte) {
				t.Helper()
				wire, err := c.GetUser(owner)
				if err != nil {
					t.Fatalf("wire GETUSER %s: %v", owner, err)
				}
				got, err := st.GetUser(ctx, owner)
				if err != nil {
					t.Fatalf("GetUser %s: %v", owner, err)
				}
				recs = map[string][]byte{}
				for _, r := range got {
					recs[r.Key] = r.Value
				}
				vals = map[string][]byte{}
				err = st.UserValues(ctx, owner, func(ks []string, vs [][]byte) error {
					for i, k := range ks {
						vals[k] = bytes.Clone(vs[i])
					}
					return nil
				})
				if err != nil {
					t.Fatalf("UserValues %s: %v", owner, err)
				}
				return wire, recs, vals
			}
			for _, owner := range []string{"alice", "bob", "carol"} {
				wire, recs, vals := report(owner)
				if want := map[string]int{"alice": 40, "bob": 0, "carol": 1}[owner]; len(recs) != want {
					t.Fatalf("%s: GetUser reports %d records, want %d", owner, len(recs), want)
				}
				if !sameReport(wire, recs) || !sameReport(vals, recs) {
					t.Fatalf("%s: wire GETUSER (%d records), GetUser (%d) and UserValues (%d) disagree", owner, len(wire), len(recs), len(vals))
				}
				for k, v := range recs {
					got, err := st.Get(ctx, k)
					if err != nil || !bytes.Equal(got, v) {
						t.Fatalf("%s: Get(%s) = %q, %v; the report said %q", owner, k, got, err, v)
					}
				}
				wire2, recs2, vals2 := report(owner)
				if !sameReport(wire2, wire) || !sameReport(recs2, recs) || !sameReport(vals2, vals) {
					t.Fatalf("%s: the second report differs from the first", owner)
				}
			}
			if after := stored(); !sameReport(after, before) {
				t.Fatal("reading reports changed the engine's stored values")
			}
		})
	}
}

// sameReport compares two key → value answers; an empty value and a nil one
// are the same answer.
func sameReport(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}
