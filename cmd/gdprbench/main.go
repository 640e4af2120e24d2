// Command gdprbench runs the GDPR-persona workloads (customer,
// controller, processor, regulator) and prints per-operation latency
// summaries — the benchmark style of GDPRbench, this paper's follow-up.
// It runs against an embedded compliant store by default, a live server
// with -addr, or a cluster of primaries with -cluster; the network modes
// drive everything through the public SDK with one single-connection
// session per (persona actor, purpose).
//
// Examples:
//
//	gdprbench -subjects 1000 -records 10 -ops 50000 -role customer
//	gdprbench -role all
//	gdprbench -addr 127.0.0.1:6380 -role all
//	gdprbench -cluster 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/gdprbench"
	"gdprstore/pkg/gdprkv"
)

func main() {
	var (
		subjects = flag.Int("subjects", 200, "number of data subjects")
		records  = flag.Int("records", 10, "records per subject")
		ops      = flag.Int("ops", 10000, "operations per role run")
		roleStr  = flag.String("role", "all", "customer|controller|processor|regulator|all")
		timing   = flag.String("timing", "realtime", "embedded mode: eventual|realtime")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		batch    = flag.Int("batch", 1, "group data-path operations into batches of N keys")
		shards   = flag.Int("shards", 0, "embedded mode: engine lock-stripe count, power of two (0 = default; 1 = single mutex)")
		addr     = flag.String("addr", "", "network mode: run against the server at this address via pkg/gdprkv")
		clusterF = flag.String("cluster", "", "cluster mode: comma-separated primary addresses (implies network mode)")
		auditBP  = flag.String("audit-backpressure", "", `embedded mode: "block" (default) or "drop" when the audit queue is full`)
		auditM   = flag.Bool("audit-mask", false, "embedded mode: pseudonymize PII in audit records")
		autoB    = flag.Int("auto-batch", 0, "network mode: dial sessions with WithAutoBatch coalescing, maxOps N and the default window")
		scenario = flag.String("scenario", "personas", "personas|erasure|retention-storm|multi-regulation|breach-replay")
		eraseKey = flag.String("erasure-keys", "16,256,4096", "erasure scenario: comma-separated keys-per-owner points")
		eraseOwn = flag.Int("erasure-owners", 8, "erasure scenario: owners erased per point")
		opsAddr  = flag.String("ops-addr", "", "sample a live server's ops surface (host:port of -ops-addr) mid-run and report observed compliance-lag maxima")

		stormKeys    = flag.Int("storm-keys", 20000, "retention-storm: records expiring simultaneously")
		stormHorizon = flag.Duration("storm-horizon", time.Second, "retention-storm: lead time before the shared expiry deadline")
		mrOps        = flag.Int("multireg-ops", 20000, "multi-regulation: reads per policy regime")
		mrOptOut     = flag.Float64("multireg-optout", 0.30, "multi-regulation: fraction of subjects filing the CCPA do-not-sell opt-out")
		brRecords    = flag.Int("breach-records", 2_000_000, "breach-replay: synthetic audit-trail size")
		brWriters    = flag.Int("breach-writers", 1, "breach-replay: live controller write loops during the replay")
		brUnmasked   = flag.Bool("breach-unmasked", false, "breach-replay: replay an unmasked trail instead of the pseudonymized default")
	)
	flag.Parse()

	switch *scenario {
	case "erasure":
		runErasure(*eraseKey, *eraseOwn, *seed)
		return
	case "retention-storm":
		sampleOps(*opsAddr, func() {
			res, err := gdprbench.RunStorm(gdprbench.StormConfig{
				Keys: *stormKeys, Horizon: *stormHorizon, Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(gdprbench.FormatStorm(res))
		})
		return
	case "multi-regulation":
		sampleOps(*opsAddr, func() {
			points, err := gdprbench.RunMultiReg(gdprbench.MultiRegConfig{
				Subjects: *subjects, RecordsPerSubject: *records,
				Operations: *mrOps, CCPAOptOutPct: *mrOptOut, Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(gdprbench.FormatMultiReg(points))
		})
		return
	case "breach-replay":
		sampleOps(*opsAddr, func() {
			res, err := gdprbench.RunBreach(gdprbench.BreachConfig{
				Records: *brRecords, Subjects: *subjects,
				Writers: *brWriters, Unmasked: *brUnmasked, Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(gdprbench.FormatBreach(res))
		})
		return
	case "personas":
	default:
		log.Fatalf("unknown -scenario %q", *scenario)
	}

	bcfg := gdprbench.Config{
		Subjects: *subjects, RecordsPerSubject: *records,
		Operations: *ops, Seed: *seed, Batch: *batch,
	}
	roles := gdprbench.Roles
	if *roleStr != "all" {
		roles = []gdprbench.Role{gdprbench.Role(*roleStr)}
	}

	if *addr != "" || *clusterF != "" {
		runNetwork(bcfg, roles, *addr, *clusterF, *autoB, *opsAddr)
		return
	}
	if *autoB > 0 {
		log.Fatal("-auto-batch applies to network mode only (use -addr or -cluster)")
	}
	if *opsAddr != "" {
		log.Fatal("-ops-addr needs a live server to sample (use -addr/-cluster, or a scenario run against a server started with -ops-addr)")
	}
	runEmbedded(bcfg, roles, *timing, *shards, *auditBP, *auditM)
}

// sampleOps wraps fn with an ops-surface sampler against addr when set,
// printing the aggregated compliance-lag maxima after the run. Scenario
// modes open their own embedded store, so the sampled server is whatever
// live gdprkv-server the operator pointed -ops-addr at — typically one
// under independent load, to watch its gauges move while this process
// stresses the same machine.
func sampleOps(addr string, fn func()) {
	if addr == "" {
		fn()
		return
	}
	s := gdprbench.NewOpsSampler(addr, 0)
	s.Start()
	fn()
	fmt.Println(s.Stop())
}

// runErasure runs the embedded erasure-latency scenario: FORGETUSER
// latency as a function of keys-per-owner, eager deletion vs the
// crypto-shred fast path.
func runErasure(keysCSV string, owners int, seed int64) {
	var points []int
	for _, f := range strings.Split(keysCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var k int
		if _, err := fmt.Sscanf(f, "%d", &k); err != nil || k <= 0 {
			log.Fatalf("bad -erasure-keys entry %q", f)
		}
		points = append(points, k)
	}
	res, err := gdprbench.RunErasure(gdprbench.ErasureConfig{
		KeysPerOwner: points, Owners: owners, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(gdprbench.FormatErasure(res))
}

// runEmbedded is the original in-process mode: the personas call the
// compliance layer directly.
func runEmbedded(bcfg gdprbench.Config, roles []gdprbench.Role, timing string, shards int, auditBP string, auditMask bool) {
	cfg := core.Strict("")
	if timing == "eventual" {
		cfg = core.EventualFull("")
	}
	cfg.DefaultTTL = 24 * time.Hour
	cfg.Shards = shards
	cfg.AuditMask = auditMask
	switch auditBP {
	case "":
	case "block":
		cfg.AuditBackpressure = core.Ptr(audit.BackpressureBlock)
	case "drop":
		cfg.AuditBackpressure = core.Ptr(audit.BackpressureDrop)
	default:
		log.Fatalf("unknown -audit-backpressure %q", auditBP)
	}
	st, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	st.ACL().AddPrincipal(acl.Principal{ID: "processor", Role: acl.RoleProcessor})
	st.ACL().AddPrincipal(acl.Principal{ID: "regulator", Role: acl.RoleRegulator})
	for i := 0; i < bcfg.Subjects; i++ {
		st.ACL().AddPrincipal(acl.Principal{ID: gdprbench.SubjectName(i), Role: acl.RoleSubject})
	}
	if err := st.ACL().AddGrant(acl.Grant{Principal: "processor", Purpose: "*"}); err != nil {
		log.Fatal(err)
	}

	ctl := core.Ctx{Actor: "controller", Purpose: "populate"}
	start := time.Now()
	if err := gdprbench.Populate(st, ctl, bcfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("populated %d subjects x %d records in %v\n",
		bcfg.Subjects, bcfg.RecordsPerSubject, time.Since(start).Round(time.Millisecond))

	for _, role := range roles {
		rcfg := bcfg
		rcfg.Role = role
		res, err := gdprbench.Run(st, rcfg)
		if err != nil {
			log.Fatalf("%s: %v", role, err)
		}
		fmt.Println(res)
	}
}

// runNetwork drives the personas through pkg/gdprkv against one server
// (-addr) or a cluster of primaries (-cluster).
func runNetwork(bcfg gdprbench.Config, roles []gdprbench.Role, addr, clusterSpec string, autoBatch int, opsAddr string) {
	ctx := context.Background()
	var nodes []string
	clustered := clusterSpec != ""
	if clustered {
		for _, a := range strings.Split(clusterSpec, ",") {
			if a = strings.TrimSpace(a); a != "" {
				nodes = append(nodes, a)
			}
		}
		if len(nodes) == 0 {
			log.Fatal("-cluster needs at least one address")
		}
	} else {
		nodes = []string{addr}
	}

	// ACL state is node-local: install the principal population on every
	// node (the rights fan-out peers enforce it too).
	for _, n := range nodes {
		if err := gdprbench.InstallPrincipalsNet(ctx, n, bcfg.Subjects); err != nil {
			log.Fatalf("install principals on %s: %v", n, err)
		}
	}

	p := gdprbench.NewNetPool(nodes[0], clustered, nodes[1:]...)
	if autoBatch > 0 {
		p.Options(gdprkv.WithAutoBatch(0, autoBatch))
	}
	defer p.Close()

	start := time.Now()
	if err := gdprbench.PopulateNet(ctx, p, bcfg); err != nil {
		log.Fatal(err)
	}
	mode := "network"
	if clustered {
		mode = fmt.Sprintf("cluster of %d primaries", len(nodes))
	}
	fmt.Printf("populated %d subjects x %d records over the wire (%s) in %v\n",
		bcfg.Subjects, bcfg.RecordsPerSubject, mode, time.Since(start).Round(time.Millisecond))

	for _, role := range roles {
		rcfg := bcfg
		rcfg.Role = role
		var sampler *gdprbench.OpsSampler
		if opsAddr != "" {
			sampler = gdprbench.NewOpsSampler(opsAddr, 0)
			sampler.Start()
		}
		res, err := gdprbench.RunNet(ctx, p, rcfg)
		if sampler != nil {
			s := sampler.Stop()
			res.OpsObserved = &s
		}
		if err != nil {
			log.Fatalf("%s: %v", role, err)
		}
		fmt.Println(res)
	}
}
