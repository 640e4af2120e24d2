package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
	"gdprstore/pkg/gdprkv"
)

// numClients is the closed-loop client count of every workload: one per
// core of the 2-core box the bounds were calibrated on, so the clients and
// the in-process server share the processors the way a co-located backend
// would and no extra process measures the scheduler instead of the code.
const numClients = 2

const putTTL = time.Hour

// workload is one named traffic mix. Names are stable: later issues cite
// them.
type workload struct {
	name string
	why  string
	// gated workloads are the ones BENCHMARK.json lists, so the driver
	// holds later changes to the bounds on them. strict-mixed is not: its
	// every timing is the sandbox disk's fsync latency, which drifts by 2x
	// within the hour on one commit (README, "Calibration").
	gated   bool
	strict  bool // core.Strict instead of core.EventualFull
	wire    bool // through pkg/gdprkv over loopback TCP instead of Store calls
	records int
	owners  int
	// readKind is the operation whose latency is reported as read_*_us:
	// the point read, or GETUSER where the workload is about rights.
	readKind opKind
	gen      func(d *dataset, client int) opGen
}

var workloads = []workload{
	{
		name: "wire-read", gated: true, wire: true, records: 50_000, owners: 5_000, readKind: opGet,
		why: "95% GGET / 5% GPUT over TCP: gdprkv, resp, server and the kernel do >90% of the work, so only wire-path changes move it",
		gen: func(d *dataset, c int) opGen { return newPointGen(d, c, 95) },
	},
	{
		name: "core-mixed", gated: true, records: 50_000, owners: 5_000, readKind: opGet,
		why: "50% Get / 50% Put straight on the Store: bypasses the wire, so core, acl, cryptoutil, store, aof and audit do all the work",
		gen: func(d *dataset, c int) opGen { return newPointGen(d, c, 50) },
	},
	{
		name: "strict-mixed", strict: true, records: 5_000, owners: 500, readKind: opGet,
		why: "core-mixed under core.Strict: fsync per AOF append and per audit record dominates, the paper's 20x corner; ends with a replay check",
		gen: func(d *dataset, c int) opGen { return newPointGen(d, c, 50) },
	},
	{
		name: "rights-under-write", gated: true, wire: true, records: 200 * userKeys, owners: 200, readKind: opGetUser,
		why: "one client GPUTs while the other runs 9 GETUSER (256 records) per write-then-FORGETUSER: owner-index reads stalling foreground writes",
		gen: func(d *dataset, c int) opGen {
			if c == 0 {
				return newPointGen(d, c, 0)
			}
			return newRightsGen(d, c)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the dataset by div (tests and -smoke), keeping the
// records-per-owner ratio.
func (w workload) scaled(div int) workload {
	per := w.records / w.owners
	w.owners = max(w.owners/div, 2)
	w.records = w.owners * per
	return w
}

// env is one opened system under test: store, optional server and clients,
// and the loaded dataset, all under one temp directory.
type env struct {
	w     workload
	dir   string
	cfg   core.Config
	st    *core.Store
	srv   *server.Server
	conns []*gdprkv.Client
	data  *dataset
}

var masterKey = []byte("gdprstore-bench-master-key-32byt")

func (w workload) config(dir string) core.Config {
	cfg := core.EventualFull(filepath.Join(dir, "audit.log"))
	if w.strict {
		cfg = core.Strict(filepath.Join(dir, "audit.log"))
	}
	cfg.AOFPath = filepath.Join(dir, "store.aof")
	cfg.Envelope = true
	cfg.MasterKey = masterKey
	return cfg
}

// openStore opens (or, on an existing dir, replays) the workload's store
// with the background loops a production server runs.
func openStore(cfg core.Config) (*core.Store, error) {
	st, err := core.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st.ACL().AddPrincipal(acl.Principal{ID: benchActor, Role: acl.RoleController})
	st.StartExpirer()
	st.StartSweeper()
	return st, nil
}

// setup is what setup_s times: open the store, start the server and dial
// the clients (serve: wire workloads, and every traced run), and load every
// record.
func setup(w workload, data *dataset, dir string, serve bool) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, dir: dir, cfg: w.config(dir), data: data}
	var err error
	if e.st, err = openStore(e.cfg); err != nil {
		return nil, err
	}
	if serve {
		if e.srv, err = server.Listen("127.0.0.1:0", e.st); err != nil {
			e.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		for i := 0; i < numClients; i++ {
			c, err := gdprkv.Dial(context.Background(), e.srv.Addr(),
				gdprkv.WithActor(benchActor), gdprkv.WithPurpose(benchPurpose), gdprkv.WithPoolSize(1))
			if err != nil {
				e.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			e.conns = append(e.conns, c)
		}
	}
	if err := e.load(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// load writes every record through Store.Put from numClients goroutines.
func (e *env) load() error {
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := coreTarget{e.st}
			for i := c; i < len(e.data.keys); i += numClients {
				if err := t.put(e.data.keys[i], e.data.values[i], e.data.owner(i)); err != nil {
					errs[c] = fmt.Errorf("load %s: %w", e.data.keys[i], err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// target returns what client c drives: its SDK connection on a wire
// workload, the Store itself otherwise.
func (e *env) target(c int) target {
	if e.w.wire {
		return wireTarget{e.conns[c]}
	}
	return coreTarget{e.st}
}

// sdkRetries is how often the SDK had to retry a read elsewhere or replace
// a broken connection; on loopback it should stay 0.
func (e *env) sdkRetries() uint64 {
	var n uint64
	for _, c := range e.conns {
		s := c.Stats()
		n += s.Retries + s.Redials
	}
	return n
}

// closeStore stops the clients, the server and the store but keeps the
// files, so the store can be reopened from them.
func (e *env) closeStore() error {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.st == nil {
		return nil
	}
	err := e.st.Close()
	e.st = nil
	return err
}

// close tears everything down and removes the temp directory.
func (e *env) close() {
	e.closeStore()
	os.RemoveAll(e.dir)
}

// userRecs is a GETUSER answer from either target, kept as returned so
// that checking it stays outside the timed call.
type userRecs struct {
	m    map[string][]byte
	recs []core.UserRecord
}

func (u userRecs) len() int { return len(u.m) + len(u.recs) }

func (u userRecs) each(fn func(key string, value []byte)) {
	for k, v := range u.m {
		fn(k, v)
	}
	for _, r := range u.recs {
		fn(r.Key, r.Value)
	}
}

// target is the public surface one client calls: the SDK or the Store.
type target interface {
	get(key string) ([]byte, error)
	put(key string, value []byte, owner string) error
	putBatch(keys []string, values [][]byte, owner string) error
	getUser(owner string) (userRecs, error)
	forget(owner string) error
}

type wireTarget struct{ c *gdprkv.Client }

func (t wireTarget) get(key string) ([]byte, error) { return t.c.GGet(context.Background(), key) }

func (t wireTarget) put(key string, value []byte, owner string) error {
	return t.c.GPut(context.Background(), key, value, gdprkv.PutOptions{Owner: owner, TTL: putTTL})
}

func (t wireTarget) putBatch(keys []string, values [][]byte, owner string) error {
	return t.c.GMPut(context.Background(), keys, values, gdprkv.PutOptions{Owner: owner, TTL: putTTL})
}

func (t wireTarget) getUser(owner string) (userRecs, error) {
	m, err := t.c.GetUser(context.Background(), owner)
	return userRecs{m: m}, err
}

func (t wireTarget) forget(owner string) error {
	_, err := t.c.ForgetUser(context.Background(), owner)
	return err
}

type coreTarget struct{ st *core.Store }

var benchCtx = core.Ctx{Actor: benchActor, Purpose: benchPurpose}

func (t coreTarget) get(key string) ([]byte, error) { return t.st.Get(benchCtx, key) }

func (t coreTarget) put(key string, value []byte, owner string) error {
	return t.st.Put(benchCtx, key, value, core.PutOptions{Owner: owner, TTL: putTTL})
}

func (t coreTarget) putBatch(keys []string, values [][]byte, owner string) error {
	entries := make([]core.BatchEntry, len(keys))
	for i := range keys {
		entries[i] = core.BatchEntry{Key: keys[i], Value: values[i]}
	}
	return t.st.PutBatch(benchCtx, entries, core.PutOptions{Owner: owner, TTL: putTTL})
}

func (t coreTarget) getUser(owner string) (userRecs, error) {
	recs, err := t.st.GetUser(benchCtx, owner)
	return userRecs{recs: recs}, err
}

func (t coreTarget) forget(owner string) error {
	_, err := t.st.Forget(benchCtx, owner)
	return err
}
