package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
)

func TestZipfianRange(t *testing.T) {
	g := NewZipfian(1000)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := g.Next(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// With θ=0.99 over 1000 items, item 0 must receive far more than the
	// uniform share (0.1%) of draws — the defining property of the
	// request distribution Figure 1 uses.
	g := NewZipfian(1000)
	r := rand.New(rand.NewSource(2))
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if g.Next(r) == 0 {
			hits++
		}
	}
	share := float64(hits) / draws
	if share < 0.05 {
		t.Fatalf("item 0 share = %.4f, want >> uniform 0.001", share)
	}
}

func TestZipfianGrow(t *testing.T) {
	g := NewZipfian(10)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		g.Grow()
	}
	for i := 0; i < 1000; i++ {
		if v := g.Next(r); v < 0 || v >= 110 {
			t.Fatalf("post-grow out of range: %d", v)
		}
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	g := NewScrambledZipfian(1000)
	r := rand.New(rand.NewSource(4))
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		counts[g.Next(r)]++
	}
	// Find the hottest item: it must NOT be item 0 or 1 systematically —
	// scrambling moves popularity to hashed positions.
	type kv struct {
		k int64
		n int
	}
	var top []kv
	for k, n := range counts {
		top = append(top, kv{k, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n })
	if top[0].k == 0 && top[1].k == 1 {
		t.Fatal("scrambling did not move hot keys")
	}
	// Still skewed: the hottest item beats the uniform share by 10x.
	if float64(top[0].n)/100000 < 0.01 {
		t.Fatalf("scrambled distribution lost its skew: top share %.4f", float64(top[0].n)/100000)
	}
}

func TestUniformCoverage(t *testing.T) {
	g := NewUniform(100)
	r := rand.New(rand.NewSource(5))
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[g.Next(r)]++
	}
	// Chi-squared-ish sanity: every item within 3x of expectation.
	exp := float64(draws) / 100
	for i, n := range counts {
		if math.Abs(float64(n)-exp) > 3*exp {
			t.Fatalf("item %d count %d far from uniform expectation %.0f", i, n, exp)
		}
	}
}

func TestLatestSkewsToRecent(t *testing.T) {
	g := NewLatest(1000)
	r := rand.New(rand.NewSource(6))
	recent := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if g.Next(r) >= 900 {
			recent++
		}
	}
	if float64(recent)/draws < 0.5 {
		t.Fatalf("latest distribution not recent-skewed: %.3f in top decile", float64(recent)/draws)
	}
	// After growth, the newest items get the mass.
	for i := 0; i < 500; i++ {
		g.Grow()
	}
	newest := 0
	for i := 0; i < draws; i++ {
		if g.Next(r) >= 1000 {
			newest++
		}
	}
	if newest == 0 {
		t.Fatal("grown items never drawn")
	}
}

func TestWorkloadValidation(t *testing.T) {
	for name, w := range CoreWorkloads {
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s invalid: %v", name, err)
		}
	}
	bad := Workload{Name: "X", ReadProportion: 0.5, RequestDistribution: DistZipfian}
	if bad.Validate() == nil {
		t.Fatal("proportions summing to 0.5 accepted")
	}
	badDist := Workload{Name: "X", ReadProportion: 1, RequestDistribution: "exponential"}
	if badDist.Validate() == nil {
		t.Fatal("unknown distribution accepted")
	}
	noScanLen := Workload{Name: "X", ScanProportion: 1, RequestDistribution: DistZipfian}
	if noScanLen.Validate() == nil {
		t.Fatal("scan workload without MaxScanLength accepted")
	}
}

func TestChooseOpProportions(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	counts := map[OpType]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[WorkloadB.chooseOp(r)]++
	}
	readShare := float64(counts[OpRead]) / draws
	if readShare < 0.94 || readShare > 0.96 {
		t.Fatalf("workload B read share = %.4f, want ≈0.95", readShare)
	}
}

func TestKeyNameSortsByIndex(t *testing.T) {
	if !(KeyName(9) < KeyName(10) && KeyName(999) < KeyName(1000)) {
		t.Fatal("key names do not sort numerically")
	}
}

func baselineFactory(t *testing.T) (func(int) (Target, error), *core.Store) {
	t.Helper()
	st, err := core.Open(core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return EmbeddedTarget(st, core.Ctx{}, core.PutOptions{}), st
}

func TestLoadPhase(t *testing.T) {
	factory, st := baselineFactory(t)
	res, err := Load(YCSBConfig{
		Workload: WorkloadA, RecordCount: 1000, Workers: 4, Target: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1000 || res.Errors != 0 {
		t.Fatalf("load result: %+v", res)
	}
	if st.Engine().Len() != 1000 {
		t.Fatalf("engine has %d keys after load", st.Engine().Len())
	}
	if res.PerOp["INSERT"].Count != 1000 {
		t.Fatalf("insert histogram count = %d", res.PerOp["INSERT"].Count)
	}
	if res.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestRunPhaseAllWorkloads(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
		name := name
		t.Run(name, func(t *testing.T) {
			factory, _ := baselineFactory(t)
			w := CoreWorkloads[name]
			if _, err := Load(YCSBConfig{Workload: w, RecordCount: 500, Workers: 2, Target: factory}); err != nil {
				t.Fatal(err)
			}
			res, err := Run(YCSBConfig{
				Workload: w, RecordCount: 500, OperationCount: 2000,
				Workers: 2, Target: factory,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("workload %s errors: %d\n%s", name, res.Errors, res)
			}
			var total uint64
			for _, s := range res.PerOp {
				total += s.Count
			}
			if total < uint64(res.Ops) {
				t.Fatalf("histograms cover %d < %d ops", total, res.Ops)
			}
		})
	}
}

func TestRunGDPRAdapter(t *testing.T) {
	cfg := core.Strict("")
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
	ctx := core.Ctx{Actor: "bench", Purpose: "benchmark"}
	opts := core.PutOptions{Owner: "subject", Purposes: []string{"benchmark"}, TTL: 3600e9}
	factory := EmbeddedTarget(st, ctx, opts)

	if _, err := Load(YCSBConfig{Workload: WorkloadA, RecordCount: 200, Target: factory}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(YCSBConfig{
		Workload: WorkloadA, RecordCount: 200, OperationCount: 1000, Target: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("GDPR run errors: %d", res.Errors)
	}
	// Strict config audits every op: the trail must have grown past the
	// op count (load + run).
	if st.Trail().Seq() < 1200 {
		t.Fatalf("audit seq = %d, want >= 1200 (every op logged)", st.Trail().Seq())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		factory, _ := baselineFactory(t)
		Load(YCSBConfig{Workload: WorkloadA, RecordCount: 100, Target: factory, Seed: 99})
		res, err := Run(YCSBConfig{
			Workload: WorkloadA, RecordCount: 100, OperationCount: 500,
			Target: factory, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.PerOp["READ"].Count != b.PerOp["READ"].Count {
		t.Fatalf("same seed produced different op mixes: %d vs %d",
			a.PerOp["READ"].Count, b.PerOp["READ"].Count)
	}
}

func TestRunRequiresFactory(t *testing.T) {
	if _, err := Run(YCSBConfig{Workload: WorkloadA, OperationCount: 1}); err == nil {
		t.Fatal("missing factory accepted")
	}
	if _, err := Load(YCSBConfig{Workload: WorkloadA, RecordCount: 1}); err == nil {
		t.Fatal("missing factory accepted")
	}
}

func TestOpTypeStrings(t *testing.T) {
	want := map[OpType]string{
		OpRead: "READ", OpUpdate: "UPDATE", OpInsert: "INSERT",
		OpScan: "SCAN", OpReadModifyWrite: "READ-MODIFY-WRITE",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%v = %q", op, op.String())
		}
	}
}

// TestYCSBTargets runs YCSB-A on both targets — the embedded store on its
// baseline and compliant paths, and the SDK against a live server — one
// operation per call and in batches of 8: no operation fails, and every
// loaded record is there afterwards.
func TestYCSBTargets(t *testing.T) {
	const records = 200
	targets := []struct {
		name string
		open func(t *testing.T) (*core.Store, func(int) (Target, error))
	}{
		{"embedded-baseline", func(t *testing.T) (*core.Store, func(int) (Target, error)) {
			st := openStore(t, core.Baseline())
			return st, EmbeddedTarget(st, core.Ctx{}, core.PutOptions{})
		}},
		{"embedded-compliant", func(t *testing.T) (*core.Store, func(int) (Target, error)) {
			st := openStore(t, core.EventualFull(""))
			st.ACL().AddPrincipal(acl.Principal{ID: "bench", Role: acl.RoleController})
			return st, EmbeddedTarget(st, core.Ctx{Actor: "bench", Purpose: "benchmark"},
				core.PutOptions{Owner: "subject", Purposes: []string{"benchmark"}, TTL: time.Hour})
		}},
		{"sdk", func(t *testing.T) (*core.Store, func(int) (Target, error)) {
			st := openStore(t, core.Baseline())
			srv, err := server.Listen("127.0.0.1:0", st)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return st, SDKTarget(srv.Addr(), nil)
		}},
	}
	for _, tg := range targets {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/batch=%d", tg.name, batch), func(t *testing.T) {
				st, target := tg.open(t)
				cfg := YCSBConfig{Workload: WorkloadA, RecordCount: records, OperationCount: 400,
					ValueSize: 100, Workers: 2, Batch: batch, Target: target}
				for _, phase := range []func(YCSBConfig) (Result, error){Load, Run} {
					res, err := phase(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Errors != 0 {
						t.Fatalf("%s: %d errors, first: %v", res.Name, res.Errors, res.Err)
					}
				}
				for i := int64(0); i < records; i++ {
					if !st.Engine().Exists(KeyName(i)) {
						t.Fatalf("loaded key %s missing", KeyName(i))
					}
				}
			})
		}
	}
}

func openStore(t *testing.T, cfg core.Config) *core.Store {
	t.Helper()
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}
