// Command gdprkv-server runs the GDPR-compliant key-value server.
//
// Usage:
//
//	gdprkv-server [flags]
//
// "gdprkv-server -h" lists the flags, each with its help: the flag
// definitions below are their one description. On a -compliant server of
// full capability (the default) access control is enforced, so every admin
// command, ACL included, needs a controller: -controller names the first.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gdprstore/internal/acl"
	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/internal/ops"
	"gdprstore/internal/replica"
	"gdprstore/internal/server"
	"gdprstore/internal/tlsproxy"
)

// stringList collects a repeatable flag value.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, " ") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:6380", "listen address")
		compliant    = flag.Bool("compliant", false, "enable the GDPR compliance layer")
		timing       = flag.String("timing", "eventual", `"eventual" or "realtime"`)
		capability   = flag.String("capability", "full", `"partial" or "full"`)
		aofPath      = flag.String("aof", "", "append-only file path (empty disables persistence)")
		aofSync      = flag.String("aof-sync", "", `"no", "everysec", or "always" (default derived from timing)`)
		journalReads = flag.Bool("journal-reads", false, "log reads through the AOF (the paper's §4.1 retrofit)")
		auditPath    = flag.String("audit", "", "audit trail path (empty keeps the trail in memory)")
		auditQueue   = flag.Int("audit-queue", 0, "audit records held accepted and not yet written (0 = default)")
		auditBP      = flag.String("audit-backpressure", "", `"block" (default) or "drop" when the audit queue is full`)
		auditMask    = flag.Bool("audit-mask", false, "pseudonymize key/owner/detail in every audit record")
		auditSink    = flag.String("audit-sink", "", "export the trail to tcp://host:port or unix:///path")
		atRestHex    = flag.String("atrest-hex", "", "64-hex-char at-rest encryption key (LUKS stand-in)")
		envelopeHex  = flag.String("envelope-hex", "", "64-hex-char envelope master key (per-owner encryption, O(1) crypto-shred erasure)")
		sweepBudget  = flag.Int("erasure-sweep-budget", 0, "max records one sweep cycle deletes (0 = 4096 default)")
		withTLS      = flag.Bool("tls", false, "front the server with a TLS tunnel (stunnel stand-in)")
		defaultTTL   = flag.Duration("default-ttl", 0, "default retention bound for writes")
		locations    = flag.String("locations", "", "comma-separated allowed storage regions")
		shards       = flag.Int("shards", 0, "engine lock-stripe count, rounded up to a power of two (0 = default; 1 = single mutex)")
		replicaof    = flag.String("replicaof", "", "replicate from the primary at host:port (server starts read-only)")
		replActor    = flag.String("repl-actor", "", "actor presented during the replication handshake (AUTH); the primary must know it as a controller")
		controller   = flag.String("controller", "", "principal registered as a controller at start-up (under access control every admin command, ACL included, needs one)")
		clusterSelf  = flag.String("cluster-self", "", "this server's node id in the cluster topology (enables cluster mode)")
		opsAddrF     = flag.String("ops-addr", "", "serve the HTTP ops surface (dashboard, /info, /metrics, /events) at this address")
	)
	var clusterNodes stringList
	flag.Var(&clusterNodes, "cluster-node", "cluster topology entry id=host:port:slots[/replica,...] (repeat per node)")
	flag.Parse()
	if (*clusterSelf == "") != (len(clusterNodes) == 0) {
		log.Fatal("-cluster-self and -cluster-node must be given together")
	}
	// -cluster-self plus -replicaof together run a *cluster replica*: the
	// server announces its primary's node id and slots while replicating
	// from it, redirects reads for them to the primary, and is the
	// promotion candidate when the primary dies (REPLICAOF NO ONE +
	// CLUSTER SETNODE on the fleet re-point the id at this server's
	// address).

	cfg := core.Config{
		Compliant:       *compliant,
		AOFPath:         *aofPath,
		JournalReads:    *journalReads,
		AuditEnabled:    *compliant,
		AuditPath:       *auditPath,
		AuditQueueDepth: *auditQueue,
		AuditMask:       *auditMask,
		AuditSocket:     *auditSink,
		DefaultTTL:      *defaultTTL,
		Shards:          *shards,
	}
	switch *auditBP {
	case "":
	case "block":
		cfg.AuditBackpressure = core.Ptr(audit.BackpressureBlock)
	case "drop":
		cfg.AuditBackpressure = core.Ptr(audit.BackpressureDrop)
	default:
		log.Fatalf("unknown -audit-backpressure %q", *auditBP)
	}
	switch *timing {
	case "realtime":
		cfg.Timing = core.TimingRealTime
	case "eventual":
		cfg.Timing = core.TimingEventual
	default:
		log.Fatalf("unknown -timing %q", *timing)
	}
	switch *capability {
	case "full":
		cfg.Capability = core.CapabilityFull
	case "partial":
		cfg.Capability = core.CapabilityPartial
	default:
		log.Fatalf("unknown -capability %q", *capability)
	}
	switch *aofSync {
	case "":
	case "no":
		cfg.AOFSync = core.Ptr(aof.SyncNo)
	case "everysec":
		cfg.AOFSync = core.Ptr(aof.SyncEverySec)
	case "always":
		cfg.AOFSync = core.Ptr(aof.SyncAlways)
	default:
		log.Fatalf("unknown -aof-sync %q", *aofSync)
	}
	if *atRestHex != "" {
		key, err := hex.DecodeString(*atRestHex)
		if err != nil || len(key) != 32 {
			log.Fatalf("-atrest-hex must be 64 hex chars (32 bytes)")
		}
		cfg.AtRestKey = key
	}
	if *envelopeHex != "" {
		key, err := hex.DecodeString(*envelopeHex)
		if err != nil || len(key) != 32 {
			log.Fatalf("-envelope-hex must be 64 hex chars (32 bytes)")
		}
		cfg.Envelope = true
		cfg.MasterKey = key
		cfg.ErasureSweepBudget = *sweepBudget
	}
	if *locations != "" {
		cfg.AllowedLocations = strings.Split(*locations, ",")
		cfg.DefaultLocation = cfg.AllowedLocations[0]
	}

	st, err := core.Open(cfg)
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer st.Close()
	if *controller != "" {
		st.ACL().AddPrincipal(acl.Principal{ID: *controller, Role: acl.RoleController})
	}

	srv, err := server.Listen(*addr, st)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	fmt.Printf("gdprkv-server listening on %s (compliant=%v timing=%s capability=%s)\n",
		srv.Addr(), cfg.Compliant, cfg.Timing, cfg.Capability)
	if *opsAddrF != "" {
		o, err := ops.Listen(*opsAddrF, srv)
		if err != nil {
			log.Fatalf("ops: %v", err)
		}
		defer o.Close()
		fmt.Printf("ops surface on http://%s (dashboard, /info, /metrics, /events)\n", o.Addr())
	}
	if *clusterSelf != "" {
		m, err := cluster.ParseNodes(clusterNodes)
		if err != nil {
			log.Fatalf("cluster topology: %v", err)
		}
		if err := srv.EnableCluster(server.ClusterConfig{Self: *clusterSelf, Map: m}); err != nil {
			log.Fatalf("cluster: %v", err)
		}
		self, _ := m.NodeByID(*clusterSelf)
		role := "node"
		if *replicaof != "" {
			role = "replica of"
		}
		fmt.Printf("cluster mode: %s %s serving slots %v of %d nodes\n",
			role, self.ID, self.Ranges, len(m.Nodes()))
	}
	if *replicaof != "" {
		srv.ReplicaOf(*replicaof, replica.NodeOptions{Actor: *replActor})
		fmt.Printf("replicating from %s (read-only until REPLICAOF NO ONE)\n", *replicaof)
	}
	// The store's one maintenance loop (expiry, the erasure sweep and
	// Maintain) starts once the role is set: it idles on a replica and
	// resumes on promotion; st.Close stops it.
	st.StartExpirer()

	var tun *tlsproxy.Tunnel
	if *withTLS {
		tun, err = tlsproxy.NewTunnel(srv.Addr(), tlsproxy.Throttle{})
		if err != nil {
			log.Fatalf("tls tunnel: %v", err)
		}
		defer tun.Close()
		fmt.Printf("TLS tunnel entry point: %s\n", tun.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
