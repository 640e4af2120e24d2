package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/resp"
	"gdprstore/internal/store"
)

// maxSpans bounds what is kept for the trace file; totals are kept for
// every span regardless.
const maxSpans = 200_000

// Span names are the exported function (or server command) the span wraps.
var (
	wireSpans = [numKinds]string{"gdprkv.GGet", "gdprkv.GPut", "gdprkv.GetUser", "gdprkv.GMPut", "gdprkv.ForgetUser"}
	coreSpans = [numKinds]string{"core.Get", "core.Put", "core.GetUser", "core.PutBatch", "core.Forget"}
	cmdSpans  = [numKinds]string{"server.GGET", "server.GPUT", "server.GETUSER", "server.GMPUT", "server.FORGETUSER"}
	cmdByName = func() map[string]string {
		m := map[string]string{}
		for _, s := range cmdSpans {
			m[s[len("server."):]] = s
		}
		return m
	}()
)

// span is one timed call: times are nanoseconds since the tracer started,
// parent is the index of the span that caused it (-1 for none), op is the
// operation's number in its phase, and calls is how many back-to-back
// calls the span covers (leaf replays time cheap calls in batches).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
	calls      int32
}

type total struct {
	ns    int64
	calls int64
}

// tracer keeps spans in memory. The server's command hook records from the
// connection goroutine while the client waits, hence the mutex.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
	totals  map[string]*total
	cur     int32 // the open top-level span, parent of hook-recorded spans
	curOp   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]*total{}, cur: -1}
}

func (tr *tracer) count(s span) {
	t := tr.totals[s.name]
	if t == nil {
		t = &total{}
		tr.totals[s.name] = t
	}
	t.ns += s.end - s.start
	t.calls += int64(s.calls)
}

// keep stores s for the trace file, or counts it as dropped when full.
func (tr *tracer) keep(s span) int32 {
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, s)
	return int32(len(tr.spans) - 1)
}

// open reserves the top-level span of operation op, so that spans recorded
// while it runs can name it as their parent.
func (tr *tracer) open(op int64) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.cur, tr.curOp = tr.keep(span{}), op
	return tr.cur
}

// close fills in the span that open reserved.
func (tr *tracer) close(idx int32, name string, t0, t1 time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := span{name: name, start: int64(t0.Sub(tr.t0)), end: int64(t1.Sub(tr.t0)), parent: -1, op: tr.curOp, calls: 1}
	tr.count(s)
	if idx >= 0 {
		tr.spans[idx] = s
	}
	tr.cur = -1
}

// child records a finished span of duration d under the open top-level
// span.
func (tr *tracer) child(name string, end time.Time, d time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	e := int64(end.Sub(tr.t0))
	s := span{name: name, start: e - int64(d), end: e, parent: tr.cur, op: tr.curOp, calls: 1}
	tr.count(s)
	tr.keep(s)
}

// batch records a leaf-replay span covering calls back-to-back calls.
func (tr *tracer) batch(name string, t0, t1 time.Time, calls int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := span{name: name, start: int64(t0.Sub(tr.t0)), end: int64(t1.Sub(tr.t0)), parent: -1, op: -1, calls: int32(calls)}
	tr.count(s)
	tr.keep(s)
}

// us is the mean duration of one call under name, 0 if never recorded.
func (tr *tracer) us(name string) float64 {
	t := tr.totals[name]
	if t == nil || t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls) / 1e3
}

func (tr *tracer) calls(name string) int64 {
	if t := tr.totals[name]; t != nil {
		return t.calls
	}
	return 0
}

// write dumps the kept spans as one JSON document.
func (tr *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"dropped_spans":%d,"spans":[`, workload, seed, tr.dropped)
	for i, s := range tr.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d,"calls":%d}`,
			s.name, s.start, s.end, s.parent, s.op, s.calls)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us_per_op"`
	Share  float64 `json:"share"`
}

// traceResult is one traced run of one workload.
type traceResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"` // the BENCHMARK.json per_layer metrics
	Table     []layerRow         `json:"table"`
	MeanUs    float64            `json:"end_to_end_mean_us_per_op"`
	SpanUs    map[string]float64 `json:"span_mean_us"` // mean of every span name recorded
	TraceFile string             `json:"trace_file"`
}

// single builds the one client of a traced phase: it plays every client's
// role in turn, from the same seeded generators the untraced run uses.
func (e *env) single(t target, prefix string) *client {
	gens := make([]opGen, numClients)
	for i := range gens {
		gens[i] = e.w.gen(e.data, i)
	}
	return newClient(e, 0, t, &roundRobin{gens: gens}, prefix)
}

// counters is the layers' own exported counts at one instant.
type counters struct {
	aofBytes, aofSyncs     int64
	auditBytes, auditSyncs int64
}

func readCounters(st *core.Store) (counters, error) {
	c := counters{aofSyncs: int64(st.Log().Syncs()), auditSyncs: int64(st.Trail().Syncs())}
	if _, err := storedBytes(st); err != nil {
		return c, err
	}
	c.aofBytes, c.auditBytes = st.Log().Size(), st.Trail().Size()
	return c, nil
}

// traceHook records a server.<COMMAND> span under the open top-level span
// for every command the server executes.
func traceHook(tr *tracer) func(string, [][]byte, resp.Value, time.Duration) {
	return func(name string, _ [][]byte, _ resp.Value, d time.Duration) {
		if s, ok := cmdByName[name]; ok {
			tr.child(s, time.Now(), d)
		}
	}
}

// watchDepth samples the audit queue's depth every millisecond until stop
// is closed, then sends the largest depth seen.
func watchDepth(trail *audit.Trail, stop <-chan struct{}, out chan<- int) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deepest := 0
	for {
		select {
		case <-stop:
			out <- deepest
			return
		case <-tick.C:
			deepest = max(deepest, trail.Stats().QueueDepth)
		}
	}
}

// runTraced replays the workload from a single client in four parts of
// rc.seconds: untraced (the overhead reference); traced through the
// workload's own surface, which gives the layer table; traced through the
// other surface (the Store under a wire workload for its core.* spans, the
// SDK and server over a Store workload so the wire layers have numbers on
// its operation mix too); and the leaf layers replayed standalone on the
// same records. A server runs in every traced run for that reason.
func runTraced(w workload, rc runConfig) (traceResult, error) {
	w = w.scaled(rc.div)
	rc.setups = 1
	e, _, err := setupMedian(w, rc, true)
	if err != nil {
		return traceResult{}, err
	}
	defer e.close()
	const refShare, ownShare, otherShare, leafShare = 0.2, 0.35, 0.15, 0.3
	part := func(share float64) time.Duration { return time.Duration(share * float64(rc.dur())) }
	wire, direct := target(wireTarget{e.conns[0]}), target(coreTarget{e.st})
	own, other, ownSpans, otherSpans := direct, wire, &coreSpans, &wireSpans
	if w.wire {
		own, other, ownSpans, otherSpans = wire, direct, &wireSpans, &coreSpans
	}
	tr := newTracer()

	ref := e.single(own, "a")
	runClients([]*client{ref}, part(refShare))
	refStats := reduce([]*client{ref}, part(refShare))

	e.srv.SetCommandHook(traceHook(tr))
	before, err := readCounters(e.st)
	if err != nil {
		return traceResult{}, err
	}
	stopDepth, depth := make(chan struct{}), make(chan int)
	go watchDepth(e.st.Trail(), stopDepth, depth)
	top := e.single(own, "b")
	top.tr, top.spans = tr, ownSpans
	runClients([]*client{top}, part(ownShare))
	close(stopDepth)
	maxDepth := <-depth
	after, err := readCounters(e.st)
	if err != nil {
		return traceResult{}, err
	}
	topStats := reduce([]*client{top}, part(ownShare))

	under := e.single(other, "c")
	under.tr, under.spans = tr, otherSpans
	runClients([]*client{under}, part(otherShare))
	e.srv.SetCommandHook(nil)

	frames, err := e.captureFrames(wire, 512)
	if err != nil {
		return traceResult{}, err
	}
	respAllocs, err := e.replayLeaves(tr, frames, part(leafShare))
	if err != nil {
		return traceResult{}, err
	}
	putAllocs, getAllocs, err := e.countAllocs()
	if err != nil {
		return traceResult{}, err
	}

	var forgotten []string
	res := traceResult{Workload: w.name, Seed: rc.seed}
	for _, c := range []*client{ref, top, under} {
		forgotten = append(forgotten, c.forgotten...)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	checkErr := e.verifyAll(forgotten)
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: correctness check failed: %v\n", w.name, checkErr)
	}
	res.Correct = res.Failed == 0 && checkErr == nil && topStats.ops > 0

	// Per-kind means in microseconds, weighted below by the traced mix.
	var mix, callUs, cmdUs, coreUs [numKinds]float64
	for k := opKind(0); k < numKinds; k++ {
		mix[k] = float64(topStats.count[k]) / float64(topStats.ops)
		callUs[k], cmdUs[k], coreUs[k] = tr.us(wireSpans[k]), tr.us(cmdSpans[k]), tr.us(coreSpans[k])
	}
	leaf := leafCosts(tr, len(e.data.keys)/len(e.data.owners))
	respUs := tr.us("resp.Reader.ReadCommand") + tr.us("resp.Writer.WriteValue")

	// Self time per end-to-end operation. Only layers on the workload's
	// own path get a share; spanned is the part of the mean its top-level
	// spans cover, the rest (generating, checking, recording) is
	// unattributed.
	self := map[string]float64{}
	var spanned float64
	for k := opKind(0); k < numKinds; k++ {
		if mix[k] == 0 {
			continue
		}
		var leaves float64
		for layer, us := range leaf[k] {
			self[layer] += mix[k] * us
			leaves += us
		}
		self["core"] += mix[k] * (coreUs[k] - leaves)
		spanned += mix[k] * coreUs[k]
		if w.wire {
			self["server"] += mix[k] * (cmdUs[k] - coreUs[k])
			self["gdprkv"] += mix[k] * (callUs[k] - cmdUs[k])
			spanned += mix[k] * (callUs[k] - coreUs[k])
		}
	}
	if w.wire {
		self["resp"] = respUs
		self["gdprkv"] -= respUs
	}
	res.MeanUs = part(ownShare).Seconds() * 1e6 / float64(topStats.ops)
	self["unattributed"] = res.MeanUs - spanned
	for _, layer := range []string{"gdprkv", "resp", "server", "core", "acl", "cryptoutil", "store", "aof", "audit", "unattributed"} {
		res.Table = append(res.Table, layerRow{layer, self[layer], self[layer] / res.MeanUs})
	}

	ops := float64(topStats.ops)
	written := float64(topStats.count[opPut] + freshKeys*topStats.count[opPutBatch])
	us := func(v float64) metric { return metric{Value: v, Unit: "us"} }
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	res.Metrics = map[string]metric{
		"gdprkv.call_us":         us(weighted(mix, callUs)),
		"gdprkv.wire_us":         us(weighted(mix, callUs) - weighted(mix, cmdUs)),
		"gdprkv.retries":         count(float64(e.sdkRetries())),
		"resp.parse_us":          us(tr.us("resp.Reader.ReadCommand")),
		"resp.render_us":         us(tr.us("resp.Writer.WriteValue")),
		"resp.allocs_per_op":     count(respAllocs),
		"server.command_us":      us(weighted(mix, cmdUs)),
		"server.self_us":         us(weighted(mix, cmdUs) - weighted(mix, coreUs)),
		"acl.check_us":           us(tr.us("acl.List.Check")),
		"core.put_us":            us(coreUs[opPut]),
		"core.read_us":           us(coreUs[w.readKind]),
		"core.self_put_us":       us(coreUs[opPut] - sum(leaf[opPut])),
		"core.allocs_per_put":    count(putAllocs),
		"core.allocs_per_get":    count(getAllocs),
		"cryptoutil.seal_us":     us(tr.us("cryptoutil.Seal")),
		"cryptoutil.open_us":     us(tr.us("cryptoutil.Open")),
		"cryptoutil.ensure_us":   us(tr.us("cryptoutil.Keyring.Ensure")),
		"store.set_us":           us(tr.us("store.DB.SetEX")),
		"store.get_us":           us(tr.us("store.DB.Get")),
		"aof.append_us":          us(tr.us("aof.Log.Append")),
		"aof.bytes_per_put":      {Value: float64(after.aofBytes-before.aofBytes) / max(written, 1), Unit: "B"},
		"aof.syncs_per_op":       count(float64(after.aofSyncs-before.aofSyncs) / ops),
		"audit.append_us":        us(tr.us("audit.Trail.Append")),
		"audit.bytes_per_op":     {Value: float64(after.auditBytes-before.auditBytes) / ops, Unit: "B"},
		"audit.syncs_per_op":     count(float64(after.auditSyncs-before.auditSyncs) / ops),
		"audit.queue_depth_max":  count(float64(maxDepth)),
		"audit.dropped":          count(float64(e.st.Trail().Stats().Dropped)),
		"stall_ops_over_1ms":     {Value: float64(refStats.stalls+topStats.stalls) / float64(refStats.ops+topStats.ops) * 1e6, Unit: "1/Mop"},
		"unattributed_share":     {Value: self["unattributed"] / res.MeanUs * 100, Unit: "%"},
		"trace_overhead_share":   {Value: (refStats.opsPerS.Median/topStats.opsPerS.Median - 1) * 100, Unit: "%"},
		"untraced_1client_ops_s": {Value: refStats.opsPerS.Median, Unit: "1/s"},
	}
	// Every span name's mean, for what the fixed list above leaves out
	// (core.GetUser, core.Forget, server.GMPUT, ...).
	res.SpanUs = map[string]float64{}
	for name := range tr.totals {
		res.SpanUs[name] = tr.us(name)
	}
	res.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
	if err := tr.write(res.TraceFile, w.name, rc.seed); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func weighted(mix, v [numKinds]float64) float64 {
	var s float64
	for k := range mix {
		s += mix[k] * v[k]
	}
	return s
}

// leafCosts is, per operation kind, the time each leaf layer takes inside
// one core call, built from the standalone means and the number of leaf
// calls the core code makes for that kind (read off internal/core: a Put
// seals once, sets once, appends its SETEX and its GMETA record, audits
// once; a GetUser opens every record of the subject; and so on).
func leafCosts(tr *tracer, perOwner int) [numKinds]map[string]float64 {
	check, ensure := tr.us("acl.List.Check"), tr.us("cryptoutil.Keyring.Ensure")
	seal, open := tr.us("cryptoutil.Seal"), tr.us("cryptoutil.Open")
	set, get := tr.us("store.DB.SetEX"), tr.us("store.DB.Get")
	app, aud := tr.us("aof.Log.Append"), tr.us("audit.Trail.Append")
	n := float64(perOwner)
	return [numKinds]map[string]float64{
		opGet:      {"acl": check, "cryptoutil": ensure + open, "store": get, "audit": aud},
		opPut:      {"acl": check, "cryptoutil": ensure + seal, "store": set, "aof": 2 * app, "audit": aud},
		opGetUser:  {"acl": check, "cryptoutil": n * (ensure + open), "store": n * get, "audit": aud},
		opPutBatch: {"acl": check, "cryptoutil": ensure + freshKeys*seal, "store": freshKeys * set, "aof": 3 * app, "audit": aud},
		opForget:   {"acl": check, "aof": 2 * app, "audit": aud},
	}
}

// frame is one real command of the workload with the reply it got.
type frame struct {
	cmd   [][]byte
	reply resp.Value
}

// captureFrames runs n operations of the workload over the wire with a
// hook that copies each command and its reply, for the resp replay.
func (e *env) captureFrames(wire target, n int) ([]frame, error) {
	var mu sync.Mutex
	var frames []frame
	var hookErr error
	e.srv.SetCommandHook(func(name string, args [][]byte, reply resp.Value, _ time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := cmdByName[name]; !ok {
			return
		}
		f := frame{cmd: [][]byte{[]byte(name)}}
		for _, a := range args {
			f.cmd = append(f.cmd, bytes.Clone(a))
		}
		// The reply may alias the server's buffers: copy it through its
		// own encoding.
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		if err := w.WriteValue(reply); err != nil {
			hookErr = err
			return
		}
		if err := w.Flush(); err != nil {
			hookErr = err
			return
		}
		v, err := resp.NewReader(&buf).ReadValue()
		if err != nil {
			hookErr = err
			return
		}
		f.reply = v
		frames = append(frames, f)
	})
	defer e.srv.SetCommandHook(nil)
	c := e.single(wire, "d")
	for i := 0; i < n; i++ {
		o := c.gen.next()
		c.prepare(o)
		r, err := c.issue(o)
		if err != nil || !c.verify(o, r) {
			return nil, fmt.Errorf("frame capture: %s failed: %v", kindNames[o.kind], err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if hookErr != nil {
		return nil, fmt.Errorf("frame capture: %w", hookErr)
	}
	return frames, nil
}

// replay calls fn in batches of n until dur has passed, one span a batch.
func replay(tr *tracer, name string, dur time.Duration, n int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; time.Since(start) < dur; {
		t0 := time.Now()
		for j := 0; j < n; j, i = j+1, i+1 {
			if err := fn(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		tr.batch(name, t0, time.Now(), n)
	}
	return nil
}

// replayLeaves times each leaf layer's exported functions standalone, on
// inputs shaped like the workload's: its keys, owners, sealed values, the
// journal records a Put appends, the audit record it leaves, and (wire
// workloads) the real command and reply frames. It returns resp's
// allocations per parsed-and-rendered frame.
func (e *env) replayLeaves(tr *tracer, frames []frame, dur time.Duration) (respAllocs float64, err error) {
	const batch = 32
	d := e.data
	each := dur / 10 // eight leaf functions and resp's two
	n := len(d.keys)

	list := e.st.ACL()
	if err := replay(tr, "acl.List.Check", each, batch, func(i int) error {
		if !list.Check(benchActor, acl.OpWrite, d.owner(i%n), benchPurpose).Allowed {
			return fmt.Errorf("denied")
		}
		return nil
	}); err != nil {
		return 0, err
	}

	kr, err := cryptoutil.NewKeyring(masterKey)
	if err != nil {
		return 0, err
	}
	for _, o := range d.owners {
		if _, _, _, err := kr.Ensure(o); err != nil {
			return 0, err
		}
	}
	if err := replay(tr, "cryptoutil.Keyring.Ensure", each, batch, func(i int) error {
		_, _, _, err := kr.Ensure(d.owner(i % n))
		return err
	}); err != nil {
		return 0, err
	}
	sealed := make([][]byte, min(n, 4096))
	dataKeys := make([][]byte, len(sealed))
	for i := range sealed {
		if dataKeys[i], err = kr.KeyFor(d.owner(i)); err != nil {
			return 0, err
		}
		if sealed[i], err = cryptoutil.Seal(dataKeys[i], d.values[i], []byte(d.keys[i])); err != nil {
			return 0, err
		}
	}
	if err := replay(tr, "cryptoutil.Seal", each, batch, func(i int) error {
		i %= len(sealed)
		var err error
		sealed[i], err = cryptoutil.Seal(dataKeys[i], d.values[i], []byte(d.keys[i]))
		return err
	}); err != nil {
		return 0, err
	}
	if err := replay(tr, "cryptoutil.Open", each, batch, func(i int) error {
		i %= len(sealed)
		_, err := cryptoutil.Open(dataKeys[i], sealed[i], []byte(d.keys[i]))
		return err
	}); err != nil {
		return 0, err
	}

	db := store.New(store.Options{})
	if err := replay(tr, "store.DB.SetEX", each, batch, func(i int) error {
		db.SetEX(d.keys[i%n], sealed[i%len(sealed)], putTTL)
		return nil
	}); err != nil {
		return 0, err
	}
	for i := range sealed {
		db.SetEX(d.keys[i], sealed[i], putTTL)
	}
	if err := replay(tr, "store.DB.Get", each, batch, func(i int) error {
		if _, ok := db.Get(d.keys[i%len(sealed)]); !ok {
			return fmt.Errorf("missing")
		}
		return nil
	}); err != nil {
		return 0, err
	}

	// The two journal records of one Put, under the workload's own fsync
	// policy, on a file of their own next to the store's.
	policy, mode := aof.SyncEverySec, audit.SyncBatched
	if e.w.strict {
		policy, mode = aof.SyncAlways, audit.SyncEveryOp
	}
	log, err := aof.Open(filepath.Join(e.dir, "leaf.aof"), aof.Options{Policy: policy})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	now := time.Now()
	meta, err := json.Marshal(core.Metadata{
		Owner: d.owner(0), Purposes: []string{benchPurpose}, Expiry: now.Add(putTTL), Created: now, KeyEpoch: 1,
	})
	if err != nil {
		return 0, err
	}
	deadline := []byte(fmt.Sprint(now.Add(putTTL).UnixNano()))
	if err := replay(tr, "aof.Log.Append", each, batch, func(i int) error {
		k := []byte(d.keys[i/2%n])
		if i%2 == 0 {
			return log.Append("SETEX", k, deadline, sealed[i/2%len(sealed)])
		}
		return log.Append("GMETA", k, meta)
	}); err != nil {
		return 0, err
	}

	trail, err := audit.Open(audit.Options{Path: filepath.Join(e.dir, "leaf-audit.log"), Mode: mode})
	if err != nil {
		return 0, err
	}
	defer trail.Close()
	if err := replay(tr, "audit.Trail.Append", each, batch, func(i int) error {
		_, err := trail.Append(audit.Record{
			Actor: benchActor, Op: "PUT", Key: d.keys[i%n], Owner: d.owner(i % n),
			Purpose: benchPurpose, Outcome: audit.OutcomeOK,
		})
		return err
	}); err != nil {
		return 0, err
	}

	var wire bytes.Buffer
	enc := resp.NewWriter(&wire)
	for _, f := range frames {
		if err := enc.WriteCommandBytes(f.cmd); err != nil {
			return 0, err
		}
	}
	if err := enc.Flush(); err != nil {
		return 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	src := bytes.NewReader(nil)
	rd := resp.NewReader(src)
	if err := replay(tr, "resp.Reader.ReadCommand", each, len(frames), func(i int) error {
		if i%len(frames) == 0 {
			src.Reset(wire.Bytes())
			rd.Reset(src)
		}
		_, err := rd.ReadCommand()
		return err
	}); err != nil {
		return 0, err
	}
	out := resp.NewWriter(io.Discard)
	if err := replay(tr, "resp.Writer.WriteValue", each, len(frames), func(i int) error {
		if err := out.WriteValue(frames[i%len(frames)].reply); err != nil {
			return err
		}
		return out.Flush()
	}); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&ms1)
	// Every frame was parsed and rendered equally often, so mallocs over
	// parse calls is the allocations of one parse plus one render.
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(tr.calls("resp.Reader.ReadCommand")), nil
}

// countAllocs measures heap allocations per Store.Put and per Store.Get
// from MemStats deltas around a single-goroutine burst, the audit pipeline
// drained on both sides so its share of each operation is included.
func (e *env) countAllocs() (perPut, perGet float64, err error) {
	n := 2000
	if e.w.strict {
		n = 200
	}
	t := coreTarget{e.st}
	d := e.data
	burst := func(fn func(i int) error) (float64, error) {
		if _, err := storedBytes(e.st); err != nil {
			return 0, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for j := 0; j < n; j++ {
			if err := fn(int(d.perm[j%len(d.perm)])); err != nil {
				return 0, err
			}
		}
		if _, err := storedBytes(e.st); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms1)
		return float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
	}
	if perPut, err = burst(func(i int) error { return t.put(d.keys[i], d.values[i], d.owner(i)) }); err != nil {
		return 0, 0, err
	}
	perGet, err = burst(func(i int) error { _, err := t.get(d.keys[i]); return err })
	return perPut, perGet, err
}
