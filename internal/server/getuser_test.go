package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/pkg/gdprkv"
)

// TestGetUserRenderAllocs pins GETUSER's reply at no allocation per record:
// the handler costs what the store's report costs and nothing more. Built as
// a Value tree, the reply of 256 records cost 257 more (one []Value and one
// key copy per record).
func TestGetUserRenderAllocs(t *testing.T) {
	st, err := core.Open(core.Config{Compliant: true, Capability: core.CapabilityPartial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cctx := core.Ctx{Actor: "controller", Purpose: "service"}
	for i := 0; i < 256; i++ {
		opts := core.PutOptions{Owner: "alice", Purposes: []string{"service"}, TTL: time.Hour}
		if err := st.Put(cctx, fmt.Sprintf("pd:alice:%03d", i), bytes.Repeat([]byte{'v'}, 100), opts); err != nil {
			t.Fatal(err)
		}
	}
	ctx := &Ctx{Srv: &Server{store: st}, Cmd: commandTable["GETUSER"], Args: [][]byte{[]byte("alice")},
		Core: cctx, Out: resp.NewWriter(io.Discard)}
	report := testing.AllocsPerRun(100, func() {
		err := st.UserValues(cctx, string(ctx.Args[0]), func(keys []string, _ [][]byte) error {
			if len(keys) != 256 {
				return fmt.Errorf("%d keys", len(keys))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("UserValues: %v", err)
		}
	})
	handler := testing.AllocsPerRun(100, func() {
		if v, err := cmdGetUser(ctx); err != nil || v.Type != 0 {
			t.Fatalf("handler = %v, %v; want the reply written", v, err)
		}
	})
	t.Logf("the report allocates %.0f times, the handler %.0f", report, handler)
	if handler > report {
		t.Errorf("the handler allocates %.0f times beyond its report's %.0f", handler-report, report)
	}
}

// TestGetUserPipelined sends a GETUSER, a GETUSER its handler refuses (a
// subject asking for another's data) and a PING in one round trip: the
// written report, the DENIED error and the PONG each parse, in order, and a
// command hook receives each as the Value the client read.
func TestGetUserPipelined(t *testing.T) {
	srv, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	if err := c.Auth("controller"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 3; i++ {
		k, v := fmt.Sprintf("pd:alice:%d", i), strings.Repeat("x", i*7)
		want[k] = v
		if err := c.GPut(k, []byte(v), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var hooked []resp.Value
	srv.SetCommandHook(func(name string, _ [][]byte, reply resp.Value, _ time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		hooked = append(hooked, reply)
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := resp.NewWriter(conn)
	for _, cmd := range [][]string{{"AUTH", "alice"}, {"GETUSER", "alice"}, {"GETUSER", "bob"}, {"PING"}} {
		if err := w.WriteCommand(cmd...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := resp.NewReader(conn)
	replies := make([]resp.Value, 4)
	for i := range replies {
		if replies[i], err = r.ReadValue(); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	got := map[string]string{}
	for i := 0; i+1 < len(replies[1].Array); i += 2 {
		got[replies[1].Array[i].Text()] = replies[1].Array[i+1].Text()
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(replies[1].Array) != 2*len(want) {
		t.Errorf("GETUSER alice = %v, want %v", replies[1], want)
	}
	if !replies[2].IsError() || !strings.HasPrefix(replies[2].Text(), "DENIED") {
		t.Errorf("GETUSER bob = %v, want DENIED", replies[2])
	}
	if replies[3].Text() != "PONG" {
		t.Errorf("PING = %v", replies[3])
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(hooked) != fmt.Sprint(replies) {
		t.Errorf("the hook saw %v, the client %v", hooked, replies)
	}
}

// TestDBSizeCountsListedKeys: DBSIZE, and INFO's dbsize, count the records a
// client can read (a compliant store lists none: KEYS is a raw command),
// never the owner record that holds a subject's standing objections, after
// OBJECT, UNOBJECT, FLUSHALL and a restart from the AOF after each.
func TestDBSizeCountsListedKeys(t *testing.T) {
	cfg := core.Strict("")
	cfg.AOFPath = filepath.Join(t.TempDir(), "a.aof")
	var c *tclient
	restart := func() {
		t.Helper()
		st, err := core.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Listen("127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			st.Close()
		})
		st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
		c = tdial(t, srv.Addr())
		if err := c.Auth("controller"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, want int64) {
		t.Helper()
		size, err := c.Do("DBSIZE")
		info, ierr := c.Do("INFO", "gdprstore")
		if err != nil || ierr != nil {
			t.Fatalf("%s: %v, %v", step, err, ierr)
		}
		if size.Int != want || !strings.Contains(info.Text(), fmt.Sprintf("dbsize:%d\r\n", want)) {
			t.Errorf("%s: DBSIZE %d, INFO %q; want %d", step, size.Int, info.Text(), want)
		}
	}
	restart()
	if err := c.GPut("pd:alice:1", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []string{"alice", "bob"} {
		if err := c.SDK().Object(ctxb(), owner, "ads"); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		do   func() error
		want int64
	}{
		{"OBJECT", func() error { return nil }, 1},
		{"UNOBJECT", func() error { return c.SDK().Unobject(ctxb(), "alice", "ads") }, 1},
		{"FLUSHALL", func() error { _, err := c.Do("FLUSHALL"); return err }, 0},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		check("after "+s.name, s.want)
		restart()
		check("after "+s.name+" and a restart", s.want)
	}
}

// BenchmarkGetUserWire is the wire stage of the rights read: one GETUSER of
// 256 records over loopback through the SDK, the report written into the
// connection and decoded into one buffer (DESIGN.md §16).
func BenchmarkGetUserWire(b *testing.B) {
	c := benchServer(b)
	keys, vals := make([]string, 256), make([][]byte, 256)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("pd:alice:%03d", i), bytes.Repeat([]byte{'v'}, 100)
	}
	if err := c.GMPut(keys, vals, gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := c.GetUser("alice"); err != nil || len(recs) != len(keys) {
			b.Fatalf("GetUser = %d records, %v", len(recs), err)
		}
	}
}
