package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"gdprstore/internal/cluster"
	"gdprstore/internal/replica"
	"gdprstore/internal/resp"
)

// This file is the replication surface of the RESP server: the handshake
// commands a replica speaks against a primary (REPLCONF, PSYNC), the
// operator command that turns a running server into a replica or back
// (REPLICAOF), the replica-side read-only stage, and the INFO replication
// section. The protocol mechanics live in internal/replica (Hub on the
// primary, Node on the replica); this file wires them to connections and
// to the command registry.

// readOnlyError rejects writes on a replica; errReply passes its text
// through verbatim (it carries its own READONLY code prefix, Redis's exact
// replica-mode error, rather than the lowercase ERR convention).
type readOnlyError struct{}

func (readOnlyError) Error() string {
	return "READONLY You can't write against a read only replica."
}

var errReadOnly error = readOnlyError{}

// readOnlyMiddleware makes a replica a copy, not a server of data. It
// refuses mutating commands with READONLY: the only writer of a replica's
// dataset is its replication link, which applies records directly to the
// store, not through the command surface. It redirects every command that
// reads the keyspace, the owner index or the trail (FlagGDPR or
// FlagNoCompliance) to the primary with MOVED: a replica lags, so it may
// still hold a subject whose erasure the primary has acknowledged.
// REPLICAOF itself is exempt (it is how the operator promotes), and so is
// introspection (PING, INFO, CLUSTER, ...).
func (s *Server) readOnlyMiddleware(next Handler) Handler {
	return func(ctx *Ctx) (resp.Value, error) {
		if !s.store.IsReplica() {
			return next(ctx)
		}
		switch f := ctx.Cmd.Flags; {
		case f&FlagWrite != 0:
			return resp.Value{}, errReadOnly
		case f&(FlagGDPR|FlagNoCompliance) != 0:
			return resp.Value{}, s.primaryRedirect(ctx)
		}
		return next(ctx)
	}
}

// primaryRedirect is a replica's answer to a data read: MOVED to the
// address its replication link dials, on the first key's slot (0 for a
// command without keys), so a cluster client follows it and a standalone
// client surfaces it as ErrMoved naming the primary.
func (s *Server) primaryRedirect(ctx *Ctx) error {
	var slot uint16
	if ctx.Cmd.Keys != nil {
		if keys := ctx.Cmd.Keys(ctx.Args); len(keys) > 0 {
			slot = cluster.Slot(string(keys[0]))
		}
	}
	var primary string
	if n := s.ReplNode(); n != nil {
		primary = n.PrimaryAddr()
	}
	return movedError(slot, primary)
}

// ReplicaOf makes this server replicate from the primary at addr: the
// store becomes a replica (its maintenance loop idles), the current link
// (if any) is torn down and a new Node dials, handshakes, and syncs into
// the store. Until PromoteToPrimary, the server refuses client writes and
// redirects client reads to addr. opts.Actor is presented during the
// handshake when the primary enforces access control.
func (s *Server) ReplicaOf(addr string, opts replica.NodeOptions) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.store.SetReplica(true)
	if s.replNode != nil {
		s.replNode.Close()
	}
	s.replNode = replica.DialPrimary(s.store, addr, opts)
}

// PromoteToPrimary stops replicating and makes the server writable again.
// The dataset stays as last synced — the promotion path after a primary
// failure — and the store's maintenance loop, if started, resumes every
// primary duty on its next tick.
func (s *Server) PromoteToPrimary() {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replNode != nil {
		s.replNode.Close()
		s.replNode = nil
	}
	s.store.SetReplica(false)
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
		Name: "PSYNC", MinArgs: 2, MaxArgs: 2, Flags: FlagAdmin,
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
// partial resync followed by the live journal stream. PSYNC is FlagAdmin:
// under access control only a controller attaches a replica, which
// receives every record.
func cmdPSync(ctx *Ctx) (resp.Value, error) {
	s := ctx.Srv
	if s.store.IsReplica() {
		// A replica applies records below the journal, so it has no stream
		// to serve; accepting PSYNC here would hand out a silent, frozen
		// feed. Chain replicas off the primary instead.
		return resp.Value{}, errors.New("chained replication is not supported; PSYNC the primary")
	}
	replid, offset, err := replica.ParsePSYNCArgs(ctx.Args)
	if err != nil {
		return resp.Value{}, err
	}
	hub, err := s.store.EnableStreamReplication()
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
