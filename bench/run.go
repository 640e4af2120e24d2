package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"gdprstore/internal/core"
	"gdprstore/pkg/gdprkv"
)

const (
	numSegments = 5 // the timed phase is cut into this many equal slices
	stallNs     = 1_000_000
)

// samples is what one client records in one timed phase: per kind and
// segment, the latency of every completed operation in nanoseconds.
type samples struct {
	lat       [numKinds][numSegments][]uint32
	attempted int
	failed    int
	userBytes int64 // key+value bytes of acknowledged writes
}

// client is one closed-loop caller.
type client struct {
	id     int
	data   *dataset
	t      target
	gen    opGen
	prefix string // fresh-subject name prefix, distinct per phase
	tr     *tracer
	spans  *[numKinds]string // top-level span name per kind when tracing

	buf       []byte
	fresh     string // the single-use subject of the current putbatch/forget
	batchKeys []string
	batchVals [][]byte
	forgotten []string // subjects this client erased
	samples
}

func newClient(e *env, id int, t target, gen opGen, prefix string) *client {
	return &client{id: id, data: e.data, t: t, gen: gen, prefix: prefix}
}

// result is what an operation returned, checked after its timing stops.
type result struct {
	val   []byte
	users userRecs
}

// prepare builds, before the timing starts, what a putbatch or forget
// sends: the fresh subject's name and its records.
func (c *client) prepare(o op) {
	if o.kind != opPutBatch && o.kind != opForget {
		return
	}
	c.fresh = freshOwner(c.prefix, c.id, o.idx)
	if o.kind == opForget {
		c.forgotten = append(c.forgotten, c.fresh)
		return
	}
	c.batchKeys, c.batchVals = c.batchKeys[:0], c.batchVals[:0]
	for j := 0; j < freshKeys; j++ {
		k := freshKey(c.fresh, j)
		c.batchKeys = append(c.batchKeys, k)
		c.batchVals = append(c.batchVals, c.data.valueInto(nil, k))
	}
}

func (c *client) issue(o op) (result, error) {
	d := c.data
	switch o.kind {
	case opGet:
		v, err := c.t.get(d.keys[o.idx])
		return result{val: v}, err
	case opPut:
		return result{}, c.t.put(d.keys[o.idx], d.values[o.idx], d.owner(o.idx))
	case opGetUser:
		u, err := c.t.getUser(d.owners[o.idx])
		return result{users: u}, err
	case opPutBatch:
		return result{}, c.t.putBatch(c.batchKeys, c.batchVals, c.fresh)
	default: // opForget
		return result{}, c.t.forget(c.fresh)
	}
}

// verify checks a successful operation's answer and accounts its bytes.
func (c *client) verify(o op, r result) bool {
	d := c.data
	switch o.kind {
	case opGet:
		return bytes.Equal(r.val, d.values[o.idx])
	case opPut:
		c.userBytes += int64(len(d.keys[o.idx]) + valueSize)
	case opPutBatch:
		for _, k := range c.batchKeys {
			c.userBytes += int64(len(k) + valueSize)
		}
	case opGetUser:
		if r.users.len() != len(d.keys)/len(d.owners) {
			return false
		}
		ok := true
		r.users.each(func(k string, v []byte) {
			c.buf = d.valueInto(c.buf, k)
			ok = ok && bytes.Equal(v, c.buf)
		})
		return ok
	}
	return true
}

// loop issues operations back to back until dur has passed since start.
// An operation still in flight at the deadline is completed but not
// counted, so every counted sample lies inside the timed phase.
func (c *client) loop(start time.Time, dur time.Duration) {
	seg := dur / numSegments
	for n := 0; ; n++ {
		o := c.gen.next()
		c.prepare(o)
		var parent int32
		if c.tr != nil {
			parent = c.tr.open(int64(n))
		}
		t0 := time.Now()
		r, err := c.issue(o)
		t1 := time.Now()
		if c.tr != nil {
			c.tr.close(parent, c.spans[o.kind], t0, t1)
		}
		ok := err == nil && c.verify(o, r)
		since := t1.Sub(start)
		if since >= dur {
			if !ok {
				c.attempted++
				c.failed++
			}
			return
		}
		c.attempted++
		if !ok {
			c.failed++
			continue
		}
		s := &c.lat[o.kind][since/seg]
		*s = append(*s, uint32(min(t1.Sub(t0), math.MaxUint32)))
	}
}

// runClients runs the clients' loops concurrently for dur.
func runClients(clients []*client, dur time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(start, dur)
		}()
	}
	wg.Wait()
}

// phaseStats is the reduction of one timed phase over all its clients.
type phaseStats struct {
	attempted, failed int
	ops               int     // completed and correct inside the phase
	opsPerS           summary // per-segment throughput
	p50, p99          [numKinds]summary
	count             [numKinds]int
	stalls            int // operations slower than stallNs
	userBytes         int64
}

func reduce(clients []*client, dur time.Duration) phaseStats {
	var ps phaseStats
	segOps := make([]float64, numSegments)
	var p50, p99 [numKinds][]float64
	for k := opKind(0); k < numKinds; k++ {
		for s := 0; s < numSegments; s++ {
			var all []uint32
			for _, c := range clients {
				all = append(all, c.lat[k][s]...)
			}
			slices.Sort(all)
			p50[k] = append(p50[k], percentile(all, 50)/1e3)
			p99[k] = append(p99[k], percentile(all, 99)/1e3)
			segOps[s] += float64(len(all))
			ps.count[k] += len(all)
			i, _ := slices.BinarySearch(all, stallNs)
			ps.stalls += len(all) - i
		}
		ps.p50[k], ps.p99[k] = summarize(p50[k]), summarize(p99[k])
		ps.ops += ps.count[k]
	}
	for s := range segOps {
		segOps[s] /= (dur / numSegments).Seconds()
	}
	ps.opsPerS = summarize(segOps)
	for _, c := range clients {
		ps.attempted += c.attempted
		ps.failed += c.failed
		ps.userBytes += c.userBytes
	}
	return ps
}

// storedBytes is what the store has written to disk so far, with the
// audit queue drained and both files flushed so the sizes are settled.
func storedBytes(st *core.Store) (int64, error) {
	if err := st.Trail().Sync(); err != nil {
		return 0, fmt.Errorf("audit sync: %w", err)
	}
	if err := st.Log().Sync(); err != nil {
		return 0, fmt.Errorf("aof sync: %w", err)
	}
	return st.Log().Size() + st.Trail().Size(), nil
}

// metric is one named value with its unit and, for timings, the spread of
// the per-segment values its median was taken from.
type metric struct {
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Segments *summary `json:"segments,omitempty"`
	Samples  int      `json:"samples,omitempty"`
}

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"` // the BENCHMARK.json end_to_end metrics
	Extra     map[string]metric `json:"extra"`   // printed, never gated
	SetupsS   []float64         `json:"setups_s"`
}

// runConfig is how one run is sized.
type runConfig struct {
	seed    int64
	seconds float64
	setups  int    // set-ups timed; setup_s is their median
	div     int    // dataset divisor (1 = full size)
	tmp     string // parent of the run's temp directory
}

func (rc runConfig) dur() time.Duration { return time.Duration(rc.seconds * float64(time.Second)) }

// setupMedian sets the workload up rc.setups times, tearing all but the
// last down again, and returns the last with every set-up time.
func setupMedian(w workload, rc runConfig, serve bool) (*env, []float64, error) {
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		return nil, nil, err
	}
	data := newDataset(rc.seed, w.records, w.owners)
	var times []float64
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp(rc.tmp, w.name+"-")
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		e, err := setup(w, data, dir, serve)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == rc.setups-1 {
			return e, times, nil
		}
		e.close()
	}
}

// runE2E is the untraced run: numClients closed-loop clients for
// rc.seconds, then the correctness checks.
func runE2E(w workload, rc runConfig) (e2eResult, error) {
	w = w.scaled(rc.div)
	e, setups, err := setupMedian(w, rc, w.wire)
	if err != nil {
		return e2eResult{}, err
	}
	defer e.close()

	before, err := storedBytes(e.st)
	if err != nil {
		return e2eResult{}, err
	}
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(e, i, e.target(i), w.gen(e.data, i), "f")
	}
	runtime.GC()
	runClients(clients, rc.dur())
	after, err := storedBytes(e.st)
	if err != nil {
		return e2eResult{}, err
	}
	ps := reduce(clients, rc.dur())
	var forgotten []string
	for _, c := range clients {
		forgotten = append(forgotten, c.forgotten...)
		c.samples = samples{}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	checkErr := e.verifyAll(forgotten)
	if checkErr == nil && w.strict {
		checkErr = e.verifyReplay()
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: correctness check failed: %v\n", w.name, checkErr)
	}
	slices.Sort(setups)
	us := func(s summary, n int) metric { return metric{Value: s.Median, Unit: "us", Segments: &s, Samples: n} }
	r := e2eResult{
		Workload: w.name, Seed: rc.seed, Seconds: rc.seconds,
		Correct:   ps.failed == 0 && checkErr == nil && ps.ops > 0,
		Attempted: ps.attempted, Failed: ps.failed, SetupsS: setups,
		Metrics: map[string]metric{
			"ops_per_s":                  {Value: ps.opsPerS.Median, Unit: "1/s", Segments: &ps.opsPerS, Samples: ps.ops},
			"read_p50_us":                us(ps.p50[w.readKind], ps.count[w.readKind]),
			"read_p99_us":                us(ps.p99[w.readKind], ps.count[w.readKind]),
			"write_p50_us":               us(ps.p50[opPut], ps.count[opPut]),
			"stored_bytes_per_user_byte": {Value: float64(after-before) / float64(ps.userBytes), Unit: "B/B"},
			"live_heap_mb":               {Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MB"},
			"setup_s":                    {Value: median(setups), Unit: "s", Samples: len(setups)},
		},
		Extra: map[string]metric{
			"write_p99_us":       us(ps.p99[opPut], ps.count[opPut]),
			"failed_share":       {Value: float64(ps.failed) / float64(max(ps.attempted, 1)), Unit: "share"},
			"stall_ops_over_1ms": {Value: float64(ps.stalls), Unit: "count", Samples: ps.ops},
			"sdk_retries":        {Value: float64(e.sdkRetries()), Unit: "count"},
		},
	}
	if n := ps.count[opForget]; n > 0 {
		r.Extra["erase_p50_us"] = us(ps.p50[opForget], n)
		r.Extra["erase_p99_us"] = us(ps.p99[opForget], n)
	}
	return r, nil
}

// verifyAll reads every loaded key back through the Store and checks its
// value, then checks through the workload's own surface that no record of
// an erased subject is readable any more.
func (e *env) verifyAll(forgotten []string) error {
	t := coreTarget{e.st}
	for i, k := range e.data.keys {
		v, err := t.get(k)
		if err != nil {
			return fmt.Errorf("final read %s: %w", k, err)
		}
		if !bytes.Equal(v, e.data.values[i]) {
			return fmt.Errorf("final read %s: wrong value", k)
		}
	}
	for _, owner := range forgotten {
		for j := 0; j < freshKeys; j++ {
			k := freshKey(owner, j)
			if _, err := e.target(0).get(k); !isGone(err) {
				return fmt.Errorf("erased record %s still answers: err=%v", k, err)
			}
		}
		u, err := e.target(0).getUser(owner)
		if err == nil && u.len() != 0 {
			return fmt.Errorf("erased subject %s still has %d records", owner, u.len())
		}
	}
	return nil
}

// isGone reports whether err is how either surface says "no such record".
func isGone(err error) bool {
	return errors.Is(err, gdprkv.ErrNotFound) || errors.Is(err, gdprkv.ErrErased) ||
		errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrErased)
}

// verifyReplay closes the store and reopens it from its files alone:
// every acknowledged write must be readable after the restart.
func (e *env) verifyReplay() error {
	if err := e.closeStore(); err != nil {
		return fmt.Errorf("close before replay: %w", err)
	}
	st, err := openStore(e.cfg)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	e.st = st
	if n := st.Len(); n != len(e.data.keys) {
		return fmt.Errorf("replay: %d live keys, want %d", n, len(e.data.keys))
	}
	return e.verifyAll(nil)
}
