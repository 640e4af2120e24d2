package server

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/pkg/gdprkv"
)

func TestUnknownCommandErrors(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	_, err := c.Do("NOSUCHCMD", "a", "b")
	var se *gdprkv.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Message, "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

// TestArityEnforcedFromTable sweeps the whole registry: every command with
// a minimum argument count must reject an empty invocation, and every
// command with a maximum must reject an oversized one, with the standard
// wrong-arity message.
func TestArityEnforcedFromTable(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	for name, cmd := range commandTable {
		if cmd.MinArgs > 0 {
			_, err := c.Do(name)
			if err == nil || !strings.Contains(err.Error(), "wrong number of arguments") {
				t.Errorf("%s with 0 args: err = %v, want wrong-arity", name, err)
			}
		}
		if cmd.MaxArgs >= 0 {
			args := make([]string, cmd.MaxArgs+2)
			args[0] = name
			for i := 1; i < len(args); i++ {
				args[i] = "x"
			}
			_, err := c.Do(args...)
			if err == nil || !strings.Contains(err.Error(), "wrong number of arguments") {
				t.Errorf("%s with %d args: err = %v, want wrong-arity", name, cmd.MaxArgs+1, err)
			}
		}
	}
}

// TestGDPRFlagEnforcement checks the compliance middleware: every
// gdpr-flagged command is refused with DENIED before AUTH on an enforcing
// store, and with BASELINE on a non-compliant store — before its handler
// runs.
func TestGDPRFlagEnforcement(t *testing.T) {
	gdprCmds := [][]string{
		{"GGET", "k"}, {"GPUT", "k", "v"}, {"GDEL", "k"}, {"GETMETA", "k"},
		{"GETUSER", "alice"}, {"ACCESS", "alice"}, {"EXPORTUSER", "alice"},
		{"FORGETUSER", "alice"}, {"OBJECT", "alice", "ads"}, {"UNOBJECT", "alice", "ads"},
		{"OWNERKEYS", "alice"}, {"KEYSBYPURPOSE", "billing"},
		{"GMPUT", "1", "k", "v"}, {"GMGET", "k"},
		{"GETUSERDATA", "alice"},
	}

	t.Run("denied before AUTH on strict store", func(t *testing.T) {
		_, c := startServer(t, core.Strict(""))
		for _, cmd := range gdprCmds {
			_, err := c.Do(cmd...)
			if !errors.Is(err, gdprkv.ErrDenied) {
				t.Errorf("%v before AUTH: err = %v, want ErrDenied", cmd, err)
			}
		}
	})

	t.Run("baseline store replies BASELINE", func(t *testing.T) {
		_, c := startServer(t, core.Baseline())
		for _, cmd := range gdprCmds {
			_, err := c.Do(cmd...)
			if !errors.Is(err, gdprkv.ErrBaseline) {
				t.Errorf("%v on baseline: err = %v, want ErrBaseline", cmd, err)
			}
		}
	})
}

func TestCommandCountMatchesTable(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	v, err := c.Do("COMMAND", "COUNT")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != int64(len(commandTable)) {
		t.Fatalf("COMMAND COUNT = %d, table has %d", v.Int, len(commandTable))
	}
	// The full listing must agree with COUNT.
	lv, err := c.Do("COMMAND")
	if err != nil {
		t.Fatal(err)
	}
	if len(lv.Array) != len(commandTable) {
		t.Fatalf("COMMAND listed %d entries, table has %d", len(lv.Array), len(commandTable))
	}
	// Spot-check one row: [name, arity, [flags...]].
	var gput []resp.Value
	for _, row := range lv.Array {
		if row.Array[0].Text() == "gput" {
			gput = row.Array
		}
	}
	if gput == nil {
		t.Fatal("GPUT missing from COMMAND")
	}
	if gput[1].Int != -3 {
		t.Fatalf("GPUT arity = %d, want -3", gput[1].Int)
	}
	flags := make(map[string]bool)
	for _, f := range gput[2].Array {
		flags[f.Text()] = true
	}
	if !flags["write"] || !flags["gdpr"] {
		t.Fatalf("GPUT flags = %v", flags)
	}
}

func TestCommandDocs(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	v, err := c.Do("COMMAND", "DOCS", "GMPUT")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Array) != 2 || v.Array[0].Text() != "gmput" {
		t.Fatalf("docs = %v", v.Array)
	}
	doc := v.Array[1].Array
	found := false
	for i := 0; i+1 < len(doc); i += 2 {
		if doc[i].Text() == "summary" && strings.Contains(doc[i+1].Text(), "batch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("GMPUT summary missing: %v", doc)
	}
	if _, err := c.Do("COMMAND", "NOPE"); err == nil {
		t.Fatal("bogus subcommand accepted")
	}
}

// TestBatchRoundTrip writes 100 keys with one GMPUT and reads them back
// with one GMGET through a real TCP server.
func TestBatchRoundTrip(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	if err := c.Auth("controller"); err != nil {
		t.Fatal(err)
	}
	if err := c.Purpose("billing"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch:%03d", i)
		vals[i] = []byte(fmt.Sprintf("value-%03d", i))
	}
	err := c.GMPut(keys, vals, gdprkv.PutOptions{
		Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GMGet(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results", len(got))
	}
	for i, g := range got {
		if g.Err != nil {
			t.Fatalf("key %s: %v", keys[i], g.Err)
		}
		if string(g.Value) != string(vals[i]) {
			t.Fatalf("key %s = %q, want %q", keys[i], g.Value, vals[i])
		}
	}
	// Metadata landed for every key (owner index sees all 100).
	okeys, err := c.Do("OWNERKEYS", "alice")
	if err != nil || len(okeys.Array) != n {
		t.Fatalf("ownerkeys = %d, %v", len(okeys.Array), err)
	}
	// Missing and denied keys report positionally without failing the batch.
	c.Purpose("marketing")
	mixed, err := c.GMGet("batch:000", "absent")
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(mixed[0].Err, gdprkv.ErrBadPurpose) {
		t.Fatalf("denied slot = %v", mixed[0].Err)
	}
	if !errors.Is(mixed[1].Err, gdprkv.ErrNotFound) {
		t.Fatalf("missing slot = %v", mixed[1].Err)
	}
}

func TestMSetMGetVanilla(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	keys := []string{"a", "b", "c"}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	if err := c.MSet(keys, vals); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGet("a", "missing", "c")
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "3" {
		t.Fatalf("mget = %q", got)
	}
	// Odd argument count is a syntax error.
	if _, err := c.Do("MSET", "a", "1", "b"); err == nil {
		t.Fatal("odd MSET accepted")
	}
}

// TestPanicRecoveryMiddleware registers a throwaway command whose handler
// panics and checks the connection survives with an ERR reply.
func TestPanicRecoveryMiddleware(t *testing.T) {
	register(Command{
		Name: "PANICTEST", MinArgs: 0, MaxArgs: 0,
		Summary: "test-only panicking command",
		Handler: func(*Ctx) (resp.Value, error) { panic("boom") },
	})
	defer delete(commandTable, "PANICTEST")

	_, c := startServer(t, core.Baseline())
	_, err := c.Do("PANICTEST")
	var se *gdprkv.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Message, "internal error") {
		t.Fatalf("err = %v, want internal error", err)
	}
	// The connection must still work.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
}

// TestCommandHookObservesReplies installs a hook and checks it sees names,
// final replies (post error mapping) and latencies.
func TestCommandHookObservesReplies(t *testing.T) {
	srv, c := startServer(t, core.Strict(""))
	var mu sync.Mutex
	type obs struct {
		name  string
		reply string
	}
	var seen []obs
	srv.SetCommandHook(func(name string, args [][]byte, reply resp.Value, d time.Duration) {
		mu.Lock()
		seen = append(seen, obs{name, reply.Text()})
		mu.Unlock()
		if d < 0 {
			t.Error("negative latency")
		}
	})
	c.Ping()
	c.Do("GGET", "k") // denied pre-AUTH: hook must see the mapped error
	srv.SetCommandHook(nil)
	c.Ping() // not observed

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("hook saw %d commands: %v", len(seen), seen)
	}
	if seen[0].name != "PING" || seen[0].reply != "PONG" {
		t.Fatalf("first = %+v", seen[0])
	}
	if seen[1].name != "GGET" || !strings.HasPrefix(seen[1].reply, "DENIED") {
		t.Fatalf("second = %+v", seen[1])
	}
}

// TestCommandStatsRecorded checks the metrics middleware feeds INFO's
// commandstats section.
func TestCommandStatsRecorded(t *testing.T) {
	srv, c := startServer(t, core.Baseline())
	for i := 0; i < 5; i++ {
		c.Ping()
	}
	c.Set("k", []byte("v"))
	snaps := srv.CommandStats().Snapshots()
	// The SDK pings once at dial time, so the five explicit pings are a
	// floor, not an exact count.
	if snaps["PING"].Count < 5 {
		t.Fatalf("PING count = %d", snaps["PING"].Count)
	}
	if snaps["SET"].Count != 1 {
		t.Fatalf("SET count = %d", snaps["SET"].Count)
	}
	v, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.Text(), "cmdstat_ping:calls=") {
		t.Fatalf("INFO missing commandstats:\n%s", v.Text())
	}
}

// TestBatchSurvivesRestart checks the batched AOF records (one GREC per
// touched engine shard) replay into identical state.
func TestBatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Strict("")
	cfg.AOFPath = dir + "/batch.aof"
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]core.BatchEntry, 50)
	for i := range entries {
		entries[i] = core.BatchEntry{
			Key:   fmt.Sprintf("k%02d", i),
			Value: []byte(fmt.Sprintf("v%02d", i)),
		}
	}
	ctx := core.Ctx{Actor: "ctl", Purpose: "svc"}
	st.ACL().SetEnforce(false)
	if err := st.PutBatch(ctx, entries, core.PutOptions{
		Owner: "alice", Purposes: []string{"svc"}, TTL: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	st2.ACL().SetEnforce(false)
	results, err := st2.GetBatch(core.Ctx{Actor: "ctl", Purpose: "svc"}, []string{"k00", "k49"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"v00", "v49"} {
		if results[i].Err != nil || string(results[i].Value) != want {
			t.Fatalf("replayed slot %d = %q, %v", i, results[i].Value, results[i].Err)
		}
	}
	m, err := st2.Metadata(core.Ctx{Actor: "ctl"}, "k25")
	if err != nil || m.Owner != "alice" {
		t.Fatalf("replayed meta = %+v, %v", m, err)
	}
}

// --- amortisation benchmarks (acceptance: GMPUT batch-of-64 ≥ 3× the
// throughput of 64 sequential GPUTs over the same connection) ---

func benchServer(b *testing.B) *tclient {
	b.Helper()
	st, err := core.Open(core.Strict(""))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", st)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close(); st.Close() })
	st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
	c := tdial(b, srv.Addr())
	for _, cmd := range [][]string{{"AUTH", "bench"}, {"PURPOSE", "billing"}} {
		if _, err := c.Do(cmd...); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

const benchBatch = 64

// BenchmarkGPutSequential64 writes 64 records as 64 GPUT round trips per
// iteration: the paper's one-key-at-a-time compliance cost.
func BenchmarkGPutSequential64(b *testing.B) {
	c := benchServer(b)
	meta := gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatch; j++ {
			if err := c.GPut(fmt.Sprintf("k%02d", j), val, meta); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkGMPutBatch64 writes the same 64 records as a single GMPUT per
// iteration: one round trip, one lock, one AOF append, one audit record.
func BenchmarkGMPutBatch64(b *testing.B) {
	c := benchServer(b)
	meta := gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}
	keys := make([]string, benchBatch)
	vals := make([][]byte, benchBatch)
	for j := range keys {
		keys[j] = fmt.Sprintf("k%02d", j)
		vals[j] = []byte("0123456789abcdef")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.GMPut(keys, vals, meta); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkGGetSequential64 and BenchmarkGMGetBatch64 are the read-side
// pair.
func BenchmarkGGetSequential64(b *testing.B) {
	c := benchServer(b)
	seedBenchKeys(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatch; j++ {
			if _, err := c.GGet(fmt.Sprintf("k%02d", j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkGMGetBatch64(b *testing.B) {
	c := benchServer(b)
	seedBenchKeys(b, c)
	keys := make([]string, benchBatch)
	for j := range keys {
		keys[j] = fmt.Sprintf("k%02d", j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GMGet(keys...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "keys/s")
}

func seedBenchKeys(b *testing.B, c *tclient) {
	b.Helper()
	meta := gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour}
	keys := make([]string, benchBatch)
	vals := make([][]byte, benchBatch)
	for j := range keys {
		keys[j] = fmt.Sprintf("k%02d", j)
		vals[j] = []byte("0123456789abcdef")
	}
	if err := c.GMPut(keys, vals, meta); err != nil {
		b.Fatal(err)
	}
}

// startHookServer starts a compliant server holding one record, "k", and a
// session of the server's own that may read it.
func startHookServer(tb testing.TB) (*Server, *connState) {
	tb.Helper()
	st, err := core.Open(core.Config{Compliant: true, Capability: core.CapabilityPartial})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", st)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close(); st.Close() })
	if err := st.Put(core.Ctx{}, "k", []byte("0123456789abcdef"), core.PutOptions{Owner: "alice", Purposes: []string{"billing"}}); err != nil {
		tb.Fatal(err)
	}
	return srv, &connState{purpose: "billing", w: resp.NewWriter(io.Discard)}
}

// TestHookedGGetAllocBudget: a command hook costs a GGET at most one
// allocation more than no hook. The reply buffer a hook needs is made only
// for a handler that writes its reply itself (GETUSER), never for one that
// returns a Value.
func TestHookedGGetAllocBudget(t *testing.T) {
	srv, sess := startHookServer(t)
	args := [][]byte{[]byte("GGET"), []byte("k")}
	run := func() {
		if v := srv.execute(sess, args); string(v.Str) != "0123456789abcdef" {
			t.Fatalf("GGET k = %v", v)
		}
	}
	plain := testing.AllocsPerRun(200, run)
	var seen atomic.Int64
	srv.SetCommandHook(func(string, [][]byte, resp.Value, time.Duration) { seen.Add(1) })
	hooked := testing.AllocsPerRun(200, run)
	t.Logf("GGET allocates %.0f times, %.0f with a hook", plain, hooked)
	if seen.Load() == 0 {
		t.Fatal("the hook saw no command")
	}
	if hooked > plain+1 {
		t.Errorf("a hooked GGET allocates %.0f times, more than one beyond the %.0f without", hooked, plain)
	}
}

// BenchmarkHookedGGet is one GGET round trip over loopback, without and
// with a command hook installed: the hook's own cost per command.
func BenchmarkHookedGGet(b *testing.B) {
	for _, hooked := range []bool{false, true} {
		b.Run(fmt.Sprintf("hook=%v", hooked), func(b *testing.B) {
			srv, _ := startHookServer(b)
			if hooked {
				srv.SetCommandHook(func(string, [][]byte, resp.Value, time.Duration) {})
			}
			c := tdial(b, srv.Addr())
			if _, err := c.Do("PURPOSE", "billing"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.GGet("k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
