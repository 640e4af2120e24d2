package ops

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/core"
	"gdprstore/internal/replica"
	"gdprstore/internal/server"
	"gdprstore/internal/testutil"
	"gdprstore/pkg/gdprkv"
)

// fullConfig enables every observable subsystem (audit trail, envelope
// keyring) with enforcement relaxed, so the ops surface has all its
// sections and gauges live.
func fullConfig() core.Config {
	return core.Config{
		Compliant:    true,
		Capability:   core.CapabilityFull,
		AuditEnabled: true,
		Envelope:     true,
		MasterKey:    bytes.Repeat([]byte{7}, 32),
		EnforceACL:   core.Ptr(false),
		RequireTTL:   core.Ptr(false),
	}
}

// startOps spins up store → RESP server → ops server → client.
func startOps(t testing.TB, cfg core.Config) (*Server, *gdprkv.Client) {
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Listen("127.0.0.1:0", rs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gdprkv.Dial(context.Background(), rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		o.Close()
		rs.Close()
		st.Close()
	})
	return o, c
}

func opsGET(t *testing.T, o *Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + o.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, b
}

// parseInfoText splits a RESP INFO reply into section → field-key →
// value, the shape /info serves natively.
func parseInfoText(t *testing.T, text string) map[string]map[string]string {
	t.Helper()
	out := make(map[string]map[string]string)
	var cur map[string]string
	for _, line := range strings.Split(text, "\r\n") {
		if line == "" {
			continue
		}
		if name, ok := strings.CutPrefix(line, "# "); ok {
			cur = make(map[string]string)
			out[name] = cur
			continue
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok || cur == nil {
			t.Fatalf("malformed INFO line %q", line)
		}
		cur[k] = v
	}
	return out
}

// TestInfoParity asserts the registry guarantee from the outside: the
// RESP INFO report and GET /info carry exactly the same sections and the
// same field keys, in both directions, and per-section requests agree too.
func TestInfoParity(t *testing.T) {
	o, c := startOps(t, fullConfig())
	ctx := context.Background()
	// Drive traffic so commandstats exists and the store has state.
	if err := c.GPut(ctx, "k1", []byte("v"), gdprkv.PutOptions{Owner: "o"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, "PING"); err != nil {
		t.Fatal(err)
	}

	// Prime commandstats with INFO's own entry, so the two full reports
	// that follow see the same key set (values still drift — every RESP
	// INFO call increments counters — so parity is over keys).
	if _, err := c.Info(ctx, ""); err != nil {
		t.Fatal(err)
	}

	respText, err := c.Info(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	respInfo := parseInfoText(t, respText)

	status, body := opsGET(t, o, "/info")
	if status != http.StatusOK {
		t.Fatalf("/info status %d", status)
	}
	var httpInfo map[string]map[string]string
	if err := json.Unmarshal(body, &httpInfo); err != nil {
		t.Fatalf("/info not JSON: %v\n%s", err, body)
	}

	for name, fields := range respInfo {
		hf, ok := httpInfo[name]
		if !ok {
			t.Errorf("section %q in RESP INFO but not /info", name)
			continue
		}
		for k := range fields {
			if _, ok := hf[k]; !ok {
				t.Errorf("field %s.%s in RESP INFO but not /info", name, k)
			}
		}
	}
	for name, fields := range httpInfo {
		rf, ok := respInfo[name]
		if !ok {
			t.Errorf("section %q in /info but not RESP INFO", name)
			continue
		}
		for k := range fields {
			if _, ok := rf[k]; !ok {
				t.Errorf("field %s.%s in /info but not RESP INFO", name, k)
			}
		}
	}

	// Per-section endpoint agrees with per-section RESP INFO.
	for _, name := range server.InfoSectionNames() {
		text, err := c.Info(ctx, name)
		if err != nil {
			t.Fatalf("INFO %s: %v", name, err)
		}
		want := parseInfoText(t, text)[name]
		status, body := opsGET(t, o, "/info/"+name)
		if status != http.StatusOK {
			t.Fatalf("/info/%s status %d", name, status)
		}
		var got map[string]string
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("/info/%s not JSON: %v", name, err)
		}
		if len(got) != len(want) {
			t.Errorf("/info/%s has %d fields, RESP INFO %s has %d", name, len(got), name, len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("/info/%s missing field %s", name, k)
			}
		}
	}

	// Static fields must agree exactly across protocols.
	var gdpr map[string]string
	_, body = opsGET(t, o, "/info/gdprstore")
	if err := json.Unmarshal(body, &gdpr); err != nil {
		t.Fatal(err)
	}
	respGdpr := parseInfoText(t, respText)["gdprstore"]
	for _, k := range []string{"compliant", "timing", "capability"} {
		if gdpr[k] != respGdpr[k] {
			t.Errorf("gdprstore.%s: http %q vs resp %q", k, gdpr[k], respGdpr[k])
		}
	}

	// Unknown sections 404 with the RESP error message.
	status, body = opsGET(t, o, "/info/bogus")
	if status != http.StatusNotFound || !strings.Contains(string(body), "unknown INFO section") {
		t.Errorf("/info/bogus = %d %q", status, body)
	}
}

// TestAuditQueueGauges: INFO audit and /metrics report the pipeline's
// queue as depth against capacity (their ratio is the pressure an operator
// alerts on; internal/audit's held-sink test drives it to 1.0), the
// capacity is the configured AuditQueueDepth, and the worker count that
// used to sit beside them is gone with the workers.
func TestAuditQueueGauges(t *testing.T) {
	cfg := fullConfig()
	cfg.AuditQueueDepth = 128
	o, c := startOps(t, cfg)
	if err := c.GPut(context.Background(), "k1", []byte("v"), gdprkv.PutOptions{Owner: "o"}); err != nil {
		t.Fatal(err)
	}
	status, body := opsGET(t, o, "/info/audit")
	if status != http.StatusOK {
		t.Fatalf("/info/audit status %d", status)
	}
	var sec map[string]string
	if err := json.Unmarshal(body, &sec); err != nil {
		t.Fatalf("/info/audit not JSON: %v\n%s", err, body)
	}
	if sec["audit_queue_cap"] != "128" {
		t.Errorf("audit_queue_cap = %q, want 128", sec["audit_queue_cap"])
	}
	if _, ok := sec["audit_queue_depth"]; !ok {
		t.Error("audit_queue_depth missing from INFO audit")
	}
	if _, ok := sec["audit_workers"]; ok {
		t.Error("audit_workers still in INFO audit")
	}
	_, body = opsGET(t, o, "/metrics")
	if !strings.Contains(string(body), "\ngdprkv_audit_queue_capacity 128\n") {
		t.Errorf("/metrics does not report the queue capacity as 128:\n%s", body)
	}
}

// TestLogSizeGauges: /metrics reports what the trail and the AOF hold on
// disk, the numbers INFO prints as audit_size and aof_size, so an operator
// can watch the cost of logging every read grow.
func TestLogSizeGauges(t *testing.T) {
	dir := t.TempDir()
	cfg := fullConfig()
	cfg.AuditPath, cfg.AOFPath = dir+"/audit.log", dir+"/a.aof"
	o, c := startOps(t, cfg)
	ctx := context.Background()
	if err := c.GPut(ctx, "pd:1", []byte("v"), gdprkv.PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
		t.Fatal(err)
	}
	st := o.rs.Store()
	if err := st.Trail().Sync(); err != nil {
		t.Fatal(err)
	}
	trail, log := st.Trail().Size(), st.Log().Size()
	if trail == 0 || log == 0 {
		t.Fatalf("trail %d B, AOF %d B after a GPut; want both written", trail, log)
	}
	_, body := opsGET(t, o, "/metrics")
	for _, line := range []string{fmt.Sprintf("\ngdprkv_audit_bytes %d\n", trail), fmt.Sprintf("\ngdprkv_aof_bytes %d\n", log)} {
		if !strings.Contains(string(body), line) {
			t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(line), body)
		}
	}
	_, body = opsGET(t, o, "/info/audit")
	var sec map[string]string
	if err := json.Unmarshal(body, &sec); err != nil {
		t.Fatalf("/info/audit not JSON: %v\n%s", err, body)
	}
	if sec["audit_size"] != fmt.Sprint(trail) {
		t.Errorf("audit_size = %q, want %d", sec["audit_size"], trail)
	}
}

// TestKeyringCipherCounters: the hit rate of the keyring's prepared-cipher
// cache is a number the server prints, in INFO erasure and in /metrics: one
// owner's writes build its cipher once and find it cached afterwards.
func TestKeyringCipherCounters(t *testing.T) {
	o, c := startOps(t, fullConfig())
	for i := 0; i < 5; i++ {
		if err := c.GPut(context.Background(), fmt.Sprintf("pd:%d", i), []byte("v"), gdprkv.PutOptions{Owner: "alice", TTL: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	_, body := opsGET(t, o, "/info/erasure")
	var sec map[string]string
	if err := json.Unmarshal(body, &sec); err != nil {
		t.Fatalf("/info/erasure not JSON: %v\n%s", err, body)
	}
	if sec["keyring_cipher_misses"] != "1" || sec["keyring_cipher_hits"] != "4" {
		t.Errorf("INFO erasure: keyring_cipher_misses=%q keyring_cipher_hits=%q, want 1 and 4",
			sec["keyring_cipher_misses"], sec["keyring_cipher_hits"])
	}
	_, body = opsGET(t, o, "/metrics")
	for _, line := range []string{"\ngdprkv_keyring_cipher_misses_total 1\n", "\ngdprkv_keyring_cipher_hits_total 4\n"} {
		if !strings.Contains(string(body), line) {
			t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(line), body)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/families.golden from this build")

// TestMetricsFamiliesGolden: /metrics cannot lose or rename a family, or
// change one's TYPE or HELP, and no family appears or vanishes with
// configuration. testdata/families.golden holds the sorted HELP and TYPE
// lines for five configurations: no compliance, compliance alone, audit
// and envelope, the same with an AOF, and a replica. One recorded PING
// makes the per-command summary family deterministic.
func TestMetricsFamiliesGolden(t *testing.T) {
	withAOF := fullConfig()
	withAOF.AOFPath = filepath.Join(t.TempDir(), "a.aof")
	configs := []struct {
		name    string
		cfg     core.Config
		replica bool
	}{
		{"baseline", core.Baseline(), false},
		{"compliant", core.Config{Compliant: true}, false},
		{"full", fullConfig(), false},
		{"full+aof", withAOF, false},
		{"replica", core.Baseline(), true},
	}
	var b strings.Builder
	for _, c := range configs {
		o, _ := startOps(t, c.cfg)
		if c.replica {
			o.rs.ReplicaOf("127.0.0.1:1", replica.NodeOptions{})
		}
		o.rs.CommandStats().Get("PING").Record(time.Microsecond)
		var heads []string
		for _, line := range strings.Split(o.renderMetrics(), "\n") {
			if strings.HasPrefix(line, "# ") {
				heads = append(heads, line)
			}
		}
		sort.Strings(heads)
		fmt.Fprintf(&b, "== %s\n%s\n", c.name, strings.Join(heads, "\n"))
	}
	golden := filepath.Join("testdata", "families.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("/metrics families differ from %s (rerun with -update only for an intended change):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestMetricsUnderConcurrentTraffic(t *testing.T) {
	o, c := startOps(t, fullConfig())
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d-%d", g, i)
				if err := c.Set(ctx, key, []byte("v")); err != nil {
					return
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		status, body := opsGET(t, o, "/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics status %d", status)
		}
		for _, series := range []string{
			"gdprkv_erasure_lag_seconds",
			"gdprkv_retention_lag_seconds",
			"gdprkv_audit_queue_depth",
			"gdprkv_commands_total",
		} {
			if !strings.Contains(string(body), series) {
				t.Fatalf("/metrics missing %s:\n%s", series, body)
			}
		}
	}
	close(stop)
	wg.Wait()
	// With traffic flowing, the per-command summary must have appeared.
	_, body := opsGET(t, o, "/metrics")
	if !strings.Contains(string(body), `gdprkv_command_duration_seconds{op="SET",quantile="0.99"}`) {
		t.Errorf("no SET latency summary in /metrics:\n%s", body)
	}
}

// readSSE reads Server-Sent Events off a response body, sending each data
// payload on the returned channel until the stream errors or closes.
func readSSE(body io.Reader, events chan<- string) {
	defer close(events)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			events <- data
		}
	}
}

func TestEventsStream(t *testing.T) {
	o, c := startOps(t, fullConfig())
	if _, err := c.Do(context.Background(), "PING"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+o.Addr()+"/events?interval=50", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := make(chan string, 16)
	go readSSE(resp.Body, events)
	var got []string
	timeout := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed after %d events", len(got))
			}
			got = append(got, ev)
		case <-timeout:
			t.Fatalf("only %d SSE ticks within 5s", len(got))
		}
	}
	var first, last statsEvent
	if err := json.Unmarshal([]byte(got[0]), &first); err != nil {
		t.Fatalf("tick not JSON: %v\n%s", err, got[0])
	}
	if err := json.Unmarshal([]byte(got[len(got)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || last.Seq <= first.Seq {
		t.Errorf("seq did not advance: first=%d last=%d", first.Seq, last.Seq)
	}
	if first.Info["gdprstore"]["commands"] == "0" || first.Info["replication"]["role"] != "master" {
		t.Errorf("implausible first tick: %+v", first)
	}
	// A tick carries every INFO section, applicable or not, with the keys
	// GET /info/{section} serves.
	for _, name := range server.InfoSectionNames() {
		_, body := opsGET(t, o, "/info/"+name)
		var want map[string]string
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("/info/%s not JSON: %v", name, err)
		}
		got, ok := last.Info[name]
		if !ok {
			t.Errorf("tick lacks section %q", name)
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("tick lacks %s.%s", name, k)
			}
		}
	}

	// Client disconnect must end the stream promptly and leave the server
	// healthy.
	cancel()
	testutil.Eventually(t, 3*time.Second, 5*time.Millisecond, func() bool {
		_, ok := <-events
		return !ok
	}, "SSE stream did not close after client disconnect")
	if status, _ := opsGET(t, o, "/info"); status != http.StatusOK {
		t.Errorf("/info status %d after SSE disconnect", status)
	}
}

// TestCloseNoGoroutineLeak pins graceful shutdown: closing the ops server
// unblocks active SSE streams and returns the process to its pre-ops
// goroutine census.
func TestCloseNoGoroutineLeak(t *testing.T) {
	st, err := core.Open(fullConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rs, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	baseline := runtime.NumGoroutine()
	o, err := Listen("127.0.0.1:0", rs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + o.Addr() + "/events?interval=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan string, 16)
	go readSSE(resp.Body, events)
	select {
	case <-events:
	case <-time.After(3 * time.Second):
		t.Fatal("no SSE tick before shutdown")
	}

	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	testutil.Eventually(t, 3*time.Second, 5*time.Millisecond, func() bool {
		_, ok := <-events
		return !ok
	}, "SSE stream still open after ops Close")
	http.DefaultClient.CloseIdleConnections()
	testutil.Eventually(t, 3*time.Second, 10*time.Millisecond, func() bool {
		return runtime.NumGoroutine() <= baseline
	}, "goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestDashboardServed: the dashboard is served, and every INFO key its
// script reads as info.<section>.<key> exists in that section, so renaming
// a key cannot blank a cell silently. A replica-only key is checked on a
// replica; every other key on a node without compliance and on one with
// audit, envelope and an AOF.
func TestDashboardServed(t *testing.T) {
	o, _ := startOps(t, fullConfig())
	status, body := opsGET(t, o, "/")
	if status != http.StatusOK || !strings.Contains(string(body), "EventSource(\"/events") {
		t.Fatalf("dashboard = %d, EventSource present: %v", status,
			strings.Contains(string(body), "EventSource"))
	}
	reads := regexp.MustCompile(`info\.([a-z]+)\.([a-z0-9_]+)`).FindAllStringSubmatch(string(body), -1)
	if len(reads) < 10 {
		t.Fatalf("dashboard reads %d INFO keys, want every cell's: %v", len(reads), reads)
	}
	replicaOnly := map[string]bool{"replica_repl_offset": true}
	withAOF := fullConfig()
	withAOF.AOFPath = filepath.Join(t.TempDir(), "a.aof")
	replicaNode, _ := startOps(t, core.Baseline())
	replicaNode.rs.ReplicaOf("127.0.0.1:1", replica.NodeOptions{})
	baseline, _ := startOps(t, core.Baseline())
	full, _ := startOps(t, withAOF)
	for _, r := range reads {
		section, key := r[1], r[2]
		nodes := map[string]*Server{"baseline": baseline, "full": full}
		if replicaOnly[key] {
			nodes = map[string]*Server{"replica": replicaNode}
		}
		for name, node := range nodes {
			snaps, err := node.rs.InfoSnapshot(section)
			if err != nil {
				t.Fatalf("dashboard reads section %q: %v", section, err)
			}
			found := false
			for _, f := range snaps[0].Fields {
				found = found || f.Key == key
			}
			if !found {
				t.Errorf("dashboard reads info.%s.%s, absent on the %s node", section, key, name)
			}
		}
	}
}

// benchOps builds a server with populated stats for render benchmarks.
func benchOps(b *testing.B) *Server {
	o, c := startOps(b, fullConfig())
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := c.GPut(ctx, fmt.Sprintf("k%d", i), []byte("v"), gdprkv.PutOptions{Owner: "o"}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Do(ctx, "PING"); err != nil {
		b.Fatal(err)
	}
	return o
}

func BenchmarkOps_MetricsRender(b *testing.B) {
	o := benchOps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(o.renderMetrics()) == 0 {
			b.Fatal("empty exposition")
		}
	}
}

func BenchmarkOps_InfoJSON(b *testing.B) {
	o := benchOps(b)
	req := httptest.NewRequest("GET", "/info", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		o.hs.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
