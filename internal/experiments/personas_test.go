package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/clock"
	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
	"gdprstore/pkg/gdprkv"
)

// benchStore builds a full-compliance store with the persona principals
// the benchmark requires.
func benchStore(t *testing.T, subjects int) (*core.Store, core.Ctx) {
	t.Helper()
	cfg := core.Strict("")
	cfg.Clock = clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := InstallPrincipals(st, subjects); err != nil {
		t.Fatal(err)
	}
	return st, core.Ctx{Actor: "controller", Purpose: "populate"}
}

func TestPopulate(t *testing.T) {
	st, ctl := benchStore(t, 10)
	cfg := PersonaConfig{Subjects: 10, RecordsPerSubject: 5}
	if err := Populate(StorePersonas(st), cfg); err != nil {
		t.Fatal(err)
	}
	if st.Engine().Len() != 50 {
		t.Fatalf("populated %d keys, want 50", st.Engine().Len())
	}
	keys, err := st.OwnerKeys(ctl, SubjectName(3))
	if err != nil || len(keys) != 5 {
		t.Fatalf("subject3 keys = %v, %v", keys, err)
	}
}

func TestRunAllRoles(t *testing.T) {
	st, _ := benchStore(t, 20)
	cfg := PersonaConfig{Subjects: 20, RecordsPerSubject: 4}
	if err := Populate(StorePersonas(st), cfg); err != nil {
		t.Fatal(err)
	}
	for _, role := range Roles {
		t.Run(string(role), func(t *testing.T) {
			rcfg := cfg
			rcfg.Role = role
			rcfg.Operations = 300
			res, err := RunPersona(StorePersonas(st), rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%s errors: %d\n%s", role, res.Errors, res)
			}
			if len(res.PerOp) == 0 {
				t.Fatalf("%s recorded no operations", role)
			}
			if res.Throughput <= 0 {
				t.Fatal("zero throughput")
			}
		})
	}
}

func TestCustomerEraseTakesEffect(t *testing.T) {
	st, ctl := benchStore(t, 5)
	cfg := PersonaConfig{Subjects: 5, RecordsPerSubject: 3, Role: RoleCustomer, Operations: 2000, Seed: 42}
	if err := Populate(StorePersonas(st), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := RunPersona(StorePersonas(st), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With 1% erase probability over 2000 ops on 5 subjects, at least one
	// subject should have been erased.
	if _, ok := res.PerOp[OpErase]; !ok {
		t.Skip("no erase drawn with this seed")
	}
	total := 0
	for i := 0; i < 5; i++ {
		keys, _ := st.OwnerKeys(ctl, SubjectName(i))
		total += len(keys)
	}
	if total == 15 {
		t.Fatal("erases recorded but no subject data removed")
	}
}

func TestUnknownRole(t *testing.T) {
	st, _ := benchStore(t, 1)
	if _, err := RunPersona(StorePersonas(st), PersonaConfig{Role: "hacker", Subjects: 1, RecordsPerSubject: 1, Operations: 1}); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func TestMixWeightsSumToOne(t *testing.T) {
	for role, mix := range mixes {
		sum := 0.0
		for _, w := range mix {
			sum += w.w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("role %s mix sums to %v", role, sum)
		}
	}
}

func TestPurposeOfRoundTrip(t *testing.T) {
	cfg := PersonaConfig{}
	cfg.defaults()
	rec := RecordKey(12, 7)
	want := cfg.Purposes[7%len(cfg.Purposes)]
	if got := purposeOf(rec, cfg); got != want {
		t.Fatalf("purposeOf(%q) = %q, want %q", rec, got, want)
	}
	if got := purposeOf("garbage", cfg); got != cfg.Purposes[0] {
		t.Fatalf("fallback purpose = %q", got)
	}
}

// startNode boots one compliant server, with the principal "controller"
// seeded in process as gdprkv-server -controller does, and returns its
// address.
func startNode(t *testing.T) (*server.Server, string) {
	t.Helper()
	st, err := core.Open(core.Config{
		Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	t.Cleanup(func() { st.Close() })
	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

// netPersonas installs the principals on a fresh single node and returns
// a session pool against it.
func netPersonas(t *testing.T, subjects int) *NetPool {
	t.Helper()
	_, addr := startNode(t)
	if err := InstallPrincipalsNet(context.Background(), addr, subjects); err != nil {
		t.Fatal(err)
	}
	p := NewNetPool(addr)
	t.Cleanup(p.Close)
	return p
}

func runAllRoles(t *testing.T, p PersonaTarget, cfg PersonaConfig) {
	t.Helper()
	if err := Populate(p, cfg); err != nil {
		t.Fatal(err)
	}
	for _, role := range Roles {
		rcfg := cfg
		rcfg.Role = role
		res, err := RunPersona(p, rcfg)
		if err != nil {
			t.Fatalf("%s: %v", role, err)
		}
		if res.Errors != 0 {
			t.Errorf("%s: %d non-benign errors, first: %v", role, res.Errors, res.Err)
		}
		if len(res.PerOp) == 0 {
			t.Errorf("%s: no operations recorded", role)
		}
	}
}

// TestNetPersonasSingleNode runs every persona over the wire against one
// server, one single-connection session per (actor, purpose).
func TestNetPersonasSingleNode(t *testing.T) {
	p := netPersonas(t, 6)
	runAllRoles(t, p, PersonaConfig{Subjects: 6, RecordsPerSubject: 8, Operations: 120, Seed: 7})
}

// TestNetPersonasCluster runs the personas against three primaries in
// cluster mode: owner-tagged record keys co-locate each subject, and the
// rights operations (GETUSER/FORGETUSER in the customer mix) go to the
// subject's slot node.
func TestNetPersonasCluster(t *testing.T) {
	const nodes = 3
	srvs := make([]*server.Server, nodes)
	addrs := make([]string, nodes)
	cnodes := make([]cluster.Node, nodes)
	splits := cluster.EvenSplit(nodes)
	for i := 0; i < nodes; i++ {
		srv, addr := startNode(t)
		srvs[i], addrs[i] = srv, addr
		cnodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: addr, Ranges: splits[i]}
	}
	m, err := cluster.NewMap(cnodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Sequential subject names hash to nearby CRC16 values, so a handful
	// of subjects can legitimately share a node; 12 of them provably span
	// all three (subjects 0-7 -> n3, 8-9 -> n2, 10-11 -> n1).
	cfg := PersonaConfig{Subjects: 12, RecordsPerSubject: 8, Operations: 120, Seed: 11}
	for i, srv := range srvs {
		if err := srv.EnableCluster(server.ClusterConfig{Self: cnodes[i].ID, Map: m}); err != nil {
			t.Fatal(err)
		}
		// ACL state is node-local: every node needs the principals for
		// the subjects of its slots.
		if err := InstallPrincipalsNet(ctx, addrs[i], cfg.Subjects); err != nil {
			t.Fatal(err)
		}
	}
	p := NewNetPool(addrs[0], gdprkv.WithCluster(addrs[1:]...))
	defer p.Close()
	runAllRoles(t, p, cfg)

	// The population genuinely spread: more than one node holds keys.
	holding := 0
	for _, srv := range srvs {
		if srv.Store().Engine().Len() > 0 {
			holding++
		}
	}
	if holding < 2 {
		t.Fatalf("population landed on %d node(s); expected a spread", holding)
	}
}

// TestPersonasBatchBothTargets runs every persona with batched data-path
// operations (GetBatch/PutBatch in-process, GMGET/GMPUT over the wire).
func TestPersonasBatchBothTargets(t *testing.T) {
	cfg := PersonaConfig{Subjects: 8, RecordsPerSubject: 8, Operations: 200, Seed: 3, Batch: 4}
	t.Run("embedded", func(t *testing.T) {
		st, _ := benchStore(t, cfg.Subjects)
		runAllRoles(t, StorePersonas(st), cfg)
	})
	t.Run("sdk", func(t *testing.T) {
		runAllRoles(t, netPersonas(t, cfg.Subjects), cfg)
	})
}

// TestPersonaOpsCountIssuedOnly pins that a persona run reports the
// operations it issued: a draw that lands on an erased subject for a
// data-path operation and cannot be redrawn issues nothing, so it must
// count in neither Ops nor the throughput. Two subjects erase quickly, so
// most of the customer's draws are skipped.
func TestPersonaOpsCountIssuedOnly(t *testing.T) {
	cfg := PersonaConfig{Subjects: 2, RecordsPerSubject: 3, Role: RoleCustomer, Operations: 3000, Seed: 42}
	targets := map[string]func(t *testing.T) PersonaTarget{
		"embedded": func(t *testing.T) PersonaTarget {
			st, _ := benchStore(t, cfg.Subjects)
			return StorePersonas(st)
		},
		"sdk": func(t *testing.T) PersonaTarget { return netPersonas(t, cfg.Subjects) },
	}
	for name, open := range targets {
		t.Run(name, func(t *testing.T) {
			p := open(t)
			if err := Populate(p, cfg); err != nil {
				t.Fatal(err)
			}
			res, err := RunPersona(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var issued uint64
			for _, s := range res.PerOp {
				issued += s.Count
			}
			if res.Ops != issued {
				t.Fatalf("Ops = %d, but the histograms saw %d issued operations", res.Ops, issued)
			}
			if issued == uint64(cfg.Operations) {
				t.Fatalf("no draw was skipped; the test no longer exercises erased subjects")
			}
			if want := float64(issued) / res.Elapsed.Seconds(); res.Throughput != want {
				t.Fatalf("throughput %.0f, want issued/elapsed = %.0f", res.Throughput, want)
			}
		})
	}
}
