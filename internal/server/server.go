// Package server exposes a core.Store over TCP using the RESP protocol, so
// the benchmark harness can exercise the same network path the paper's YCSB
// setup did against Redis. Alongside the familiar Redis command set (GET,
// SET, DEL, EXPIRE, TTL, SCAN, ...) it adds the GDPR command family
// (GPUT/GGET/GETUSER/FORGETUSER/OBJECT/...) and the amortising batch family
// (MSET/MGET/GMPUT/GMGET), with per-connection actor and purpose state
// established by AUTH and PURPOSE.
//
// Every command is served from a declarative registry (registry.go) through
// a middleware pipeline — panic recovery, one observation stage feeding
// per-command metrics and a pluggable command hook, GDPR flag enforcement,
// and a single error-to-reply mapping. See DESIGN.md for the architecture.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gdprstore/internal/clock"
	"gdprstore/internal/core"
	"gdprstore/internal/metrics"
	"gdprstore/internal/replica"
	"gdprstore/internal/resp"
	"gdprstore/pkg/gdprkv"
)

// Server serves RESP connections backed by a core.Store.
type Server struct {
	store *core.Store
	ln    net.Listener
	// clock is the store's time source: command latencies are measured on
	// it, as are grant expiries.
	clock clock.Clock

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	// peers holds one pooled client per peer address, dialed on first use
	// by peerCall (cluster.go) and closed by Close; guarded by mu.
	peers map[string]*gdprkv.Client

	// pipeline is the composed middleware chain every command runs
	// through; built once at Listen.
	pipeline Handler
	// cmdStats holds per-command latency histograms and call counts
	// (INFO commandstats).
	cmdStats *metrics.OpSet
	// hook is the pluggable command observation point (audit/tracing).
	hook atomic.Pointer[CommandHook]

	// replication link (replication.go): replNode is non-nil while this
	// server replicates from a primary. The role itself is the store's
	// (core.Store.SetReplica), which the read-only middleware reads.
	replMu   sync.Mutex
	replNode *replica.Node

	// clusterSt holds the cluster-mode topology (cluster.go); nil while
	// the server runs standalone. Swapped atomically so slot checks on the
	// command hot path are lock-free. clusterMu serializes the
	// derive-and-swap of admin mutations (CLUSTER SETSLOT/SETNODE) so two
	// concurrent topology changes cannot lose each other's epoch bump.
	clusterSt atomic.Pointer[clusterState]
	clusterMu sync.Mutex

	// stats
	commands atomic.Uint64
}

// Listen starts a server on addr (e.g. "127.0.0.1:0").
func Listen(addr string, st *core.Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		store:    st,
		ln:       ln,
		clock:    st.Config().Clock,
		conns:    make(map[net.Conn]struct{}),
		peers:    make(map[string]*gdprkv.Client),
		cmdStats: metrics.NewOpSet(),
	}
	s.pipeline = s.buildPipeline()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store returns the backing store.
func (s *Server) Store() *core.Store { return s.store }

// Commands returns the number of commands served.
func (s *Server) Commands() uint64 { return s.commands.Load() }

// CommandStats exposes the per-command metrics the pipeline records.
func (s *Server) CommandStats() *metrics.OpSet { return s.cmdStats }

// SetCommandHook installs (or, with nil, removes) the hook invoked after
// every executed command with its name, arguments, final reply and
// latency. The hook runs on the connection's goroutine; keep it fast.
func (s *Server) SetCommandHook(h CommandHook) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(c)
	}
}

// Close stops the listener, closes active connections and the pooled peer
// clients, and waits for handlers to finish. The store itself is not
// closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	for _, p := range s.peers {
		p.Close()
	}
	s.mu.Unlock()
	s.replMu.Lock()
	node := s.replNode
	s.replNode = nil
	s.replMu.Unlock()
	if node != nil {
		node.Close()
	}
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// connState is the per-connection authentication and purpose context, plus
// the transport handles a hijacking command (PSYNC) needs to take over the
// connection.
type connState struct {
	actor   string
	purpose string

	// asking is the one-shot ASKING flag: set by the ASKING command,
	// consumed by the next command's cluster-middleware slot check, exactly
	// like Redis Cluster's per-connection ASKING state.
	asking bool

	conn     net.Conn
	w        *resp.Writer
	hijacked bool

	// held, through heldW (made on first use), takes a handler's own reply
	// while a command hook is installed or cluster mode is on (Ctx.Writer).
	held  bytes.Buffer
	heldW *resp.Writer
}

// hijack marks the connection as taken over by the current handler: the
// read loop stands down (no reply is written) and the handler owns the
// connection's I/O until it returns, after which the connection closes.
// Pending replies are flushed first so the handler starts from a clean
// stream.
func (cs *connState) hijack() net.Conn {
	cs.hijacked = true
	_ = cs.w.Flush()
	return cs.conn
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	r := resp.NewReader(c)
	w := resp.NewWriter(c)
	sess := &connState{conn: c, w: w}
	for {
		args, err := r.ReadCommand()
		if err != nil {
			// A clean disconnect surfaces as io.EOF, never as ErrProtocol,
			// so a protocol error alone decides whether to send a reply.
			if errors.Is(err, resp.ErrProtocol) {
				// Tell the client what went wrong before dropping it.
				_ = w.WriteValue(resp.ErrorValue("ERR protocol error: " + err.Error()))
				_ = w.Flush()
			}
			return
		}
		reply := s.execute(sess, args)
		s.commands.Add(1)
		if sess.hijacked {
			// The handler owned the connection (PSYNC) and has returned:
			// the link is done; close rather than resume command parsing.
			return
		}
		// The zero Value is a reply its handler already wrote (Ctx.Out).
		if reply.Type != 0 && w.WriteValue(reply) != nil {
			return
		}
		// Flush only when the pipelined batch has drained, so batched
		// clients get batched replies.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

func stringsArray(ss []string) resp.Value {
	vs := make([]resp.Value, len(ss))
	for i, s := range ss {
		vs[i] = resp.BulkStringValue(s)
	}
	return resp.ArrayValue(vs...)
}
