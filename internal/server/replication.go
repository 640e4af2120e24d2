package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"gdprstore/internal/core"
	"gdprstore/internal/replica"
	"gdprstore/internal/resp"
)

// This file is the replication surface of the RESP server: the handshake
// commands a replica speaks against a primary (REPLCONF, PSYNC), the
// operator command that turns a running server into a replica or back
// (REPLICAOF), the replica-side read-only enforcement, and the INFO
// replication section. The protocol mechanics live in internal/replica
// (Hub on the primary, Node on the replica); this file wires them to
// connections and to the command registry.

// readOnlyError rejects writes on a replica; errReply passes its text
// through verbatim (it carries its own READONLY code prefix, Redis's exact
// replica-mode error, rather than the lowercase ERR convention).
type readOnlyError struct{}

func (readOnlyError) Error() string {
	return "READONLY You can't write against a read only replica."
}

var errReadOnly error = readOnlyError{}

// readOnlyMiddleware rejects mutating commands while the server is a
// replica: the only writer of a replica's dataset is its replication link,
// which applies records directly to the store, not through the command
// surface. REPLICAOF itself is exempt (it is how the operator promotes).
func (s *Server) readOnlyMiddleware(next Handler) Handler {
	return func(ctx *Ctx) (resp.Value, error) {
		if ctx.Cmd.Flags&FlagWrite != 0 && s.isReplica.Load() {
			return resp.Value{}, errReadOnly
		}
		return next(ctx)
	}
}

// ReplicaOf makes this server replicate from the primary at addr: the
// current link (if any) is torn down and a new Node dials, handshakes, and
// syncs into the server's store. The server becomes read-only for clients
// until PromoteToPrimary. opts.Actor is presented during the handshake
// when the primary enforces access control.
func (s *Server) ReplicaOf(addr string, opts replica.NodeOptions) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replNode != nil {
		s.replNode.Close()
	}
	s.replNode = replica.DialPrimary(s.store, addr, opts)
	s.isReplica.Store(true)
}

// PromoteToPrimary stops replicating and makes the server writable again.
// The dataset stays as last synced — the promotion path after a primary
// failure. The promote hook (SetPromoteHook) runs after the role flips, so
// the operator can resume primary-only duties such as the active expirer.
func (s *Server) PromoteToPrimary() {
	s.replMu.Lock()
	wasReplica := s.replNode != nil
	if s.replNode != nil {
		s.replNode.Close()
		s.replNode = nil
	}
	s.isReplica.Store(false)
	hook := s.onPromote
	s.replMu.Unlock()
	if wasReplica && hook != nil {
		hook()
	}
}

// SetPromoteHook registers a callback invoked when a replica is promoted
// to primary (REPLICAOF NO ONE). Replicas receive retention deletions from
// the primary's stream and therefore run without an active expirer; a
// deployment that wants expiry to resume on promotion registers
// store.StartExpirer here — the server itself stays policy-free about
// background loops.
func (s *Server) SetPromoteHook(fn func()) {
	s.replMu.Lock()
	s.onPromote = fn
	s.replMu.Unlock()
}

// ReplNode returns the replica-side link state, or nil when the server is
// a primary.
func (s *Server) ReplNode() *replica.Node {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replNode
}

func init() {
	register(Command{
		Name: "REPLCONF", MinArgs: 1, MaxArgs: -1, Flags: FlagReadonly,
		Summary: "replication handshake options (LISTENING-PORT, CAPA, ACK)",
		Handler: cmdReplConf,
	})
	register(Command{
		Name: "PSYNC", MinArgs: 2, MaxArgs: 2, Flags: FlagReadonly | FlagAdmin,
		Summary: "PSYNC replid offset: attach as a replica (full or partial resync + live stream)",
		Handler: cmdPSync,
	})
	register(Command{
		Name: "REPLICAOF", MinArgs: 2, MaxArgs: 2, Flags: FlagAdmin,
		Summary: "REPLICAOF host port | NO ONE: become a replica of a primary, or promote",
		Handler: cmdReplicaOf,
	})
}

func cmdReplConf(ctx *Ctx) (resp.Value, error) {
	switch strings.ToUpper(string(ctx.Args[0])) {
	case "LISTENING-PORT":
		if len(ctx.Args) != 2 {
			return resp.Value{}, errSyntax
		}
		// Accepted for wire compatibility; link identity in INFO comes
		// from the connection's remote address.
		return resp.SimpleStringValue("OK"), nil
	case "CAPA", "GETACK", "ACK":
		// Capabilities are accepted as-is; ACKs normally arrive on the
		// replication link (the hub's ack reader), so one landing here is
		// acknowledged and ignored.
		return resp.SimpleStringValue("OK"), nil
	default:
		return resp.Value{}, fmt.Errorf("unknown REPLCONF option '%s'", string(ctx.Args[0]))
	}
}

// cmdPSync attaches the calling connection as a replica link: it hijacks
// the connection and blocks for the life of the link, streaming a full or
// partial resync followed by the live journal stream. When the store
// enforces access control, the replica must have presented an actor via
// AUTH first — a replica receives every record, so an unauthenticated one
// would be a bulk exfiltration channel.
func cmdPSync(ctx *Ctx) (resp.Value, error) {
	s := ctx.Srv
	if s.isReplica.Load() {
		// A replica applies records below the journal, so it has no stream
		// to serve; accepting PSYNC here would hand out a silent, frozen
		// feed. Chain replicas off the primary instead.
		return resp.Value{}, errors.New("chained replication is not supported; PSYNC the primary")
	}
	if s.store.ACL().Enforcing() && ctx.Core.Actor == "" {
		return resp.Value{}, fmt.Errorf("%w: AUTH required before PSYNC", core.ErrDenied)
	}
	replid, offset, err := replica.ParsePSYNCArgs(ctx.Args)
	if err != nil {
		return resp.Value{}, err
	}
	hub, err := s.store.EnableStreamReplication(replica.HubOptions{})
	if err != nil {
		return resp.Value{}, err
	}
	conn := ctx.Sess.hijack()
	_ = hub.Serve(conn, replid, offset, s.store.StreamSnapshot)
	return resp.Value{}, nil
}

func cmdReplicaOf(ctx *Ctx) (resp.Value, error) {
	host, port := string(ctx.Args[0]), string(ctx.Args[1])
	if strings.EqualFold(host, "NO") && strings.EqualFold(port, "ONE") {
		ctx.Srv.PromoteToPrimary()
		return resp.SimpleStringValue("OK"), nil
	}
	if _, err := strconv.Atoi(port); err != nil {
		return resp.Value{}, errors.New("invalid port")
	}
	// The admin's authenticated actor propagates into the replication
	// handshake, so a primary enforcing ACLs sees who attached the replica.
	ctx.Srv.ReplicaOf(net.JoinHostPort(host, port), replica.NodeOptions{Actor: ctx.Core.Actor})
	return resp.SimpleStringValue("OK"), nil
}
