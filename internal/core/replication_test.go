package core

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/backup"
	"gdprstore/internal/clock"
	"gdprstore/internal/replica"
	"gdprstore/internal/resp"
	"gdprstore/internal/testutil"
)

// recorder is a replica's Applier: the replica store, plus the name of
// every record its node applied, in order.
type recorder struct {
	*Store
	mu    sync.Mutex
	names []string
}

func (r *recorder) ApplyReplicated(name string, args [][]byte) error {
	r.mu.Lock()
	r.names = append(r.names, name)
	r.mu.Unlock()
	return r.Store.ApplyReplicated(name, args)
}

// attachReplica opens a store from cfg that replicates s through a
// replica.Node dialled into s's replication hub, and returns once the hub
// streams to it: every later write reaches it through the stream.
func attachReplica(t *testing.T, s *Store, cfg Config) *recorder {
	t.Helper()
	hub, err := s.EnableStreamReplication()
	if err != nil {
		t.Fatal(err)
	}
	addr := servePSYNC(t, hub, s.StreamSnapshot)
	rs, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	r := &recorder{Store: rs}
	linked := len(hub.Links()) + 1
	n := replica.DialPrimary(r, addr, replica.NodeOptions{ReconnectMin: 5 * time.Millisecond})
	t.Cleanup(n.Close)
	testutil.Eventually(t, 5*time.Second, 0, func() bool { return len(hub.Links()) == linked }, "replica never linked")
	return r
}

// servePSYNC serves the primary's half of the replication handshake, as
// the server's PSYNC command does: it answers PING, AUTH and REPLCONF, then
// hands PSYNC to hub.Serve. It returns the address replicas dial.
func servePSYNC(t *testing.T, hub *replica.Hub, snap replica.SnapshotProvider) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	handshake := func(c net.Conn) {
		defer c.Close()
		r, w := resp.NewReader(c), resp.NewWriter(c)
		for {
			args, err := r.ReadCommand()
			if err != nil {
				return
			}
			switch strings.ToUpper(string(args[0])) {
			case "PSYNC":
				if replid, offset, err := replica.ParsePSYNCArgs(args[1:]); err == nil {
					hub.Serve(c, replid, offset, snap)
				}
				return
			case "PING":
				w.WriteValue(resp.SimpleStringValue("PONG"))
			default:
				w.WriteValue(resp.SimpleStringValue("OK"))
			}
			if w.Flush() != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go handshake(c)
		}
	}()
	return ln.Addr().String()
}

// caughtUp waits until every replica link has acknowledged the whole stream.
func caughtUp(t *testing.T, s *Store) {
	t.Helper()
	hub := s.Hub()
	testutil.Eventually(t, 5*time.Second, 0, func() bool {
		for _, l := range hub.Links() {
			if l.AckOffset != hub.Offset() {
				return false
			}
		}
		return true
	}, "replicas did not acknowledge offset %d", hub.Offset())
}

// TestForgetPropagatesToReplicas: Forget's erasure reaches every networked
// replica. "sync" waits until every link has acknowledged the hub's offset
// and then checks each replica at once (a node acks only what it applied);
// "async" waits on no acknowledgement and polls each replica until it
// converges.
func TestForgetPropagatesToReplicas(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			s := newFullStore(t, nil)
			cfg := s.Config()
			reps := []*recorder{attachReplica(t, s, cfg), attachReplica(t, s, cfg)}
			// expect fails unless cond holds: at once after the
			// acknowledgements in sync mode, eventually in async mode.
			expect := func(cond func() bool, format string, args ...any) {
				t.Helper()
				if mode == "async" {
					testutil.Eventually(t, 5*time.Second, 0, cond, format, args...)
				} else if !cond() {
					t.Fatalf(format, args...)
				}
			}
			s.Put(ctlCtx, "pd:alice:1", []byte("secret"), PutOptions{Owner: "alice"})
			s.Put(ctlCtx, "pd:bob:1", []byte("other"), PutOptions{Owner: "bob"})
			if mode == "sync" {
				caughtUp(t, s)
			}
			expect(func() bool { return reps[0].Engine().Exists("pd:alice:1") }, "replication did not deliver the write")
			if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
				t.Fatal(err)
			}
			if mode == "sync" {
				caughtUp(t, s)
			}
			for i, r := range reps {
				expect(func() bool { return !r.Engine().Exists("pd:alice:1") }, "replica %d still holds erased data (%s)", i, mode)
				expect(func() bool { return r.Engine().Exists("pd:bob:1") }, "replica %d lost unrelated data (%s)", i, mode)
			}
		})
	}
}

// TestReplicationChainsWithAOF: the AOF and the replication hub are the two
// legs of one journal chain. A Put and a crypto-shredding Forget reach both
// legs record for record in the same order, except each new data key
// (GKEY), which the stream alone carries: the AOF's keys are in the key
// file beside it. Replaying the AOF with its key file ends in the state the
// replica reached by applying the stream.
func TestReplicationChainsWithAOF(t *testing.T) {
	path := tempAOF(t)
	vc := clock.NewVirtual(time.Unix(0, 0))
	cfg := persistentCfg(path, vc, func(c *Config) {
		c.Timing = TimingEventual // keeps the log as written: no compaction inside Forget
		c.Envelope, c.MasterKey = true, bytes.Repeat([]byte{5}, 32)
	})
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	rcfg := cfg
	rcfg.AOFPath = ""
	r := attachReplica(t, s, rcfg)
	addPrincipals(r.Store)

	s.Put(ctlCtx, "pd:alice", []byte("alice-secret"), PutOptions{Owner: "alice"})
	s.Put(ctlCtx, "pd:bob", []byte("bob-data"), PutOptions{Owner: "bob"})
	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, s)
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}

	var logged []string
	if _, err := aof.Load(path, nil, func(name string, _ [][]byte) error {
		logged = append(logged, name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{opRecord, opRecord, opRecord, opForget}; !reflect.DeepEqual(logged, want) {
		t.Fatalf("AOF leg got %v, want %v", logged, want)
	}
	// The store was empty when the replica attached: its full sync is the
	// FLUSHALL alone, and the stream follows it.
	r.mu.Lock()
	streamed := r.names
	r.mu.Unlock()
	if want := []string{"FLUSHALL", opKey, opRecord, opKey, opRecord, opRecord, opForget}; !reflect.DeepEqual(streamed, want) {
		t.Fatalf("replication leg got %v, want %v (AOF leg %v)", streamed, want, logged)
	}

	replayedPath := filepath.Join(t.TempDir(), "replayed.aof")
	copyFile(t, path, replayedPath)
	copyFile(t, path+".keys", replayedPath+".keys")
	pcfg := cfg
	pcfg.AOFPath = replayedPath
	replayed, err := Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	addPrincipals(replayed)
	want := legacyDump(t, r.Store)
	if !strings.Contains(want, "user bob pd:bob=bob-data") || strings.Contains(want, "user alice") {
		t.Fatalf("the replica did not end with bob's record and none of alice's:\n%s", want)
	}
	if got := legacyDump(t, replayed); got != want {
		t.Fatalf("AOF replay and replica differ\n--- replay ---\n%s--- replica ---\n%s", got, want)
	}
}

func TestForgetRefreshesBackups(t *testing.T) {
	s := newFullStore(t, nil)
	dir := t.TempDir()
	m, err := backup.NewManager(dir, nil, s.Config().Clock)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBackupManager(m)
	secret := []byte("alice-backup-payload")
	s.Put(ctlCtx, "pd:alice", secret, PutOptions{Owner: "alice"})
	s.Put(ctlCtx, "pd:bob", []byte("bob-data"), PutOptions{Owner: "bob"})
	if _, err := s.Backup(); err != nil {
		t.Fatal(err)
	}
	vclock(s).Advance(time.Hour)
	if _, err := s.Backup(); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Forget(Ctx{Actor: "alice"}, "alice"); err != nil {
		t.Fatal(err)
	}
	// Real-time Forget must have refreshed: exactly one generation, free
	// of alice's data.
	gens, _ := m.List()
	if len(gens) != 1 {
		t.Fatalf("generations after Forget = %d, want 1", len(gens))
	}
	erasedOnDisk(t, dir, nil, nil, []string{"alice"}, [][]byte{secret})
	raw, _ := os.ReadFile(gens[0])
	if !bytes.Contains(raw, []byte("bob-data")) {
		t.Fatal("unrelated data lost from refreshed backup")
	}
}

func TestEventualForgetDefersBackupRefresh(t *testing.T) {
	s := newFullStore(t, func(c *Config) { c.Timing = TimingEventual })
	dir := t.TempDir()
	m, err := backup.NewManager(dir, nil, s.Config().Clock)
	if err != nil {
		t.Fatal(err)
	}
	s.SetBackupManager(m)
	secret := []byte("deferred-erasure-payload")
	s.Put(ctlCtx, "pd:alice", secret, PutOptions{Owner: "alice"})
	s.Backup()
	s.Forget(Ctx{Actor: "alice"}, "alice")

	gens, _ := m.List()
	raw, _ := os.ReadFile(gens[0])
	if !bytes.Contains(raw, secret) {
		t.Fatal("eventual timing should leave the old backup until Maintain")
	}
	st := s.Maintain()
	if !st.Rewrote {
		t.Fatal("Maintain did not run deferred erasure propagation")
	}
	gens, _ = m.List()
	if len(gens) != 1 {
		t.Fatalf("generations after Maintain = %d", len(gens))
	}
	erasedOnDisk(t, dir, nil, nil, []string{"alice"}, [][]byte{secret})
}

func TestBackupWithoutManagerFails(t *testing.T) {
	s := newFullStore(t, nil)
	if _, err := s.Backup(); err == nil {
		t.Fatal("Backup without manager accepted")
	}
}
