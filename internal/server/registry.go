package server

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/internal/wirecode"
)

// This file is the command registry: the declarative table every RESP
// command is served from, and the middleware pipeline each invocation runs
// through. Commands are registered at package init (see commands.go);
// the table is immutable afterwards, so lookups are lock-free. The old
// monolithic dispatch switch is gone — COMMAND, COMMAND COUNT and
// COMMAND DOCS are generated from the same table, so the introspection
// surface can never drift from the implementation.

// Flag classifies a command for the middleware pipeline and for COMMAND
// introspection.
type Flag uint8

// Command flags.
const (
	// FlagReadonly marks commands that do not mutate the store.
	FlagReadonly Flag = 1 << iota
	// FlagWrite marks commands that mutate the store.
	FlagWrite
	// FlagGDPR marks the compliance-path family: rejected with BASELINE on
	// a non-compliant store, and with DENIED before AUTH when the store
	// enforces access control.
	FlagGDPR
	// FlagAdmin marks operational commands (ACL, FLUSHALL, COMPACT, ...):
	// a controller's under ACL enforcement (DESIGN.md §3).
	FlagAdmin
	// FlagNoCompliance marks the raw-engine surface, which bypasses the
	// compliance layer: only a baseline store serves it.
	FlagNoCompliance
)

var flagNames = []struct {
	f    Flag
	name string
}{
	{FlagReadonly, "readonly"},
	{FlagWrite, "write"},
	{FlagGDPR, "gdpr"},
	{FlagAdmin, "admin"},
	{FlagNoCompliance, "nocompliance"},
}

// Names lists the set flags as their COMMAND-reply names.
func (f Flag) Names() []string {
	var out []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Ctx is the per-invocation context a handler receives: the server, the
// connection's session state, the command's declaration, the arguments
// (after the command name), and the resolved core context.
type Ctx struct {
	Srv  *Server
	Sess *connState
	Cmd  *Command
	Args [][]byte
	// Core carries the session's actor and purpose, resolved by the
	// session middleware before the handler runs.
	Core core.Ctx
	// Asking is true when the previous command on this connection was
	// ASKING: the client is following a one-shot ASK redirect, so the
	// cluster middleware admits the command for a slot this node is
	// importing but does not own yet.
	Asking bool
	// Out is the connection's reply writer. A handler may write its reply
	// there, through Writer, after its last step that can fail, and return
	// the zero Value: GETUSER's report does, so it builds no Value tree.
	Out *resp.Writer
}

// Writer returns where the handler writes a reply it renders itself: Out,
// or the connection's hold buffer while a command hook is installed or
// cluster mode is on. observe then reads the reply back as a Value for the
// hook, or copies it to Out once the cluster stage has released the slot's
// migration lock, so that a client that stops reading holds up no
// migration. A command that writes nothing costs either nothing.
func (c *Ctx) Writer() *resp.Writer {
	if (c.Srv.hook.Load() == nil && c.Srv.clusterInfo() == nil) || c.Out != c.Sess.w {
		return c.Out
	}
	if c.Sess.heldW == nil {
		c.Sess.heldW = resp.NewWriter(&c.Sess.held)
	}
	c.Sess.held.Reset()
	c.Out = c.Sess.heldW
	return c.Out
}

// Handler executes one command. Returning an error routes it through the
// single errReply mapping, so every command family emits the same
// ERR/DENIED/POLICY/PURPOSEDENIED/ERASED/BASELINE code prefixes. The zero
// Value means the reply is already written into ctx.Out.
type Handler func(*Ctx) (resp.Value, error)

// Middleware wraps a Handler with cross-cutting behaviour.
type Middleware func(next Handler) Handler

// Command is one row of the registry.
type Command struct {
	// Name is the canonical (upper-case) command name.
	Name string
	// MinArgs/MaxArgs bound the argument count after the name; MaxArgs -1
	// means variadic. Violations get the standard wrong-arity error before
	// the pipeline runs.
	MinArgs, MaxArgs int
	// Flags classify the command (see Flag).
	Flags Flag
	// Summary is the one-line description COMMAND DOCS reports.
	Summary string
	// Keys extracts the arguments cluster mode routes on (data keys, or
	// the owner name for owner-scoped GDPR commands). nil marks the
	// command node-local: it is served wherever it lands, never redirected
	// (PING, INFO, SCAN, CLUSTER, ...). Arity is already validated when it
	// runs. See cluster.go.
	Keys func(args [][]byte) [][]byte
	// Owner extracts the data subject the command names (nil or empty for
	// none): the owner argument of a rights command, the OWNER option of a
	// compliant write. In cluster mode the command's keys must hash to the
	// owner's slot, and on a migrating slot it runs where the subject is.
	Owner func(args [][]byte) string
	// Handler is the command body.
	Handler Handler
}

// arity reports the Redis-convention arity (command name included;
// negative means "at least").
func (c *Command) arity() int64 {
	if c.MaxArgs < 0 || c.MaxArgs != c.MinArgs {
		return -int64(c.MinArgs + 1)
	}
	return int64(c.MinArgs + 1)
}

// commandTable is the registry. Populated by register() at init; read-only
// afterwards.
var commandTable = make(map[string]*Command)

// register adds a command to the table; duplicate names are a programming
// error and panic at init.
func register(c Command) {
	if c.Name != strings.ToUpper(c.Name) {
		panic("server: command name must be upper-case: " + c.Name)
	}
	if _, dup := commandTable[c.Name]; dup {
		panic("server: duplicate command " + c.Name)
	}
	cc := c
	commandTable[c.Name] = &cc
}

// commandNames returns every registered name, sorted.
func commandNames() []string {
	out := make([]string, 0, len(commandTable))
	for n := range commandTable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// errSyntax is the generic syntax-error sentinel; errReply maps it (like
// every non-core error) to the ERR prefix.
var errSyntax = errors.New("syntax error")

// errReply is the single place a handler error becomes a RESP reply, so
// the error-code prefixes are consistent across the whole surface: the
// vanilla family, the GDPR family and the batch family all route here.
// The code table itself lives in internal/wirecode, shared with the
// public SDK's decoder (pkg/gdprkv), so the two ends cannot drift.
func errReply(err error) resp.Value {
	var coded codedError
	switch {
	case errors.Is(err, errReadOnly):
		// Carries its own READONLY code prefix (Redis's exact text).
		return resp.ErrorValue(err.Error())
	case errors.As(err, &coded):
		// Cluster errors (MOVED/ASK/CROSSSLOT) carry their own
		// complete reply text, Redis's exact shapes.
		return resp.ErrorValue(coded.text)
	case errors.Is(err, core.ErrNotFound):
		// Missing keys are null bulk strings, not error replies.
		return resp.NullValue()
	default:
		return resp.ErrorValue(wirecode.Code(err) + " " + err.Error())
	}
}

func wrongArity(cmd string) resp.Value {
	return resp.ErrorValue("ERR wrong number of arguments for '" + strings.ToLower(cmd) + "'")
}

// CommandHook observes every executed command after its middleware ran:
// name, arguments, the reply (post-errReply), and the latency measured on
// the store's clock. A reply its handler wrote into the connection (GETUSER's)
// reaches the hook read back into a Value, so with a hook installed such a
// command gets a reply buffer of its own (Ctx.Writer). Deployments attach
// audit/tracing sinks here.
type CommandHook func(name string, args [][]byte, reply resp.Value, d time.Duration)

// --- middleware pipeline ---
//
// Order (outermost first):
//  1. recover      — a panicking handler becomes an ERR reply, not a dead
//     connection
//  2. observe      — one latency on the store's clock feeds the
//     per-command histogram and the pluggable audit/tracing hook; sits
//     outside compliance so enforcement rejections are observed too
//  3. read-only    — while the server is a replica, rejects writes with
//     READONLY (the replication link applies records directly, below the
//     registry) and redirects data reads to the primary with MOVED
//  4. compliance   — the one gate: FlagGDPR, FlagNoCompliance and FlagAdmin
//     against the store's mode and the session's principal (DESIGN.md §3)
//  5. cluster      — slot ownership (MOVED/ASK), cross-slot rejection
//     (CROSSSLOT) and the slot's migration lock; inert unless
//     EnableCluster was called
//  6. the handler itself; its error return is mapped by errReply
func (s *Server) buildPipeline() Handler {
	h := func(ctx *Ctx) (resp.Value, error) { return ctx.Cmd.Handler(ctx) }
	h = s.clusterMiddleware(h)
	h = complianceMiddleware(h)
	h = s.readOnlyMiddleware(h)
	h = s.observe(h)
	h = recoverMiddleware(h)
	return h
}

// recoverMiddleware converts a handler panic into an ERR reply so one bad
// command cannot take down the connection (or the server).
func recoverMiddleware(next Handler) Handler {
	return func(ctx *Ctx) (v resp.Value, err error) {
		defer func() {
			if r := recover(); r != nil {
				v = resp.Value{}
				err = fmt.Errorf("internal error in '%s': %v", strings.ToLower(ctx.Cmd.Name), r)
			}
		}()
		return next(ctx)
	}
}

// observe reads the store's clock once before the rest of the pipeline and
// once after, and hands the one latency to the server's OpSet (INFO's
// commandstats section) and to the CommandHook, if set, with the final
// reply (errors already mapped). The latency includes rendering a reply the
// handler writes itself into the connection's buffer.
func (s *Server) observe(next Handler) Handler {
	return func(ctx *Ctx) (resp.Value, error) {
		hook := s.hook.Load()
		out := ctx.Out
		t0 := s.clock.Now()
		v, err := next(ctx)
		d := s.clock.Since(t0)
		s.cmdStats.Get(ctx.Cmd.Name).Record(d)
		if ctx.Out != out {
			v, err = ctx.readBack(out, v, err, hook != nil)
		}
		if hook != nil {
			reply := v
			if err != nil {
				reply = errReply(err)
			}
			(*hook)(ctx.Cmd.Name, ctx.Args, reply, d)
		}
		return v, err
	}
}

// readBack points ctx.Out back at the connection's writer, out, and yields
// the command's Value: the one the handler returned, or the one it wrote
// into the hold buffer (Ctx.Writer), read back for a hook or else copied
// to out as it is.
func (c *Ctx) readBack(out *resp.Writer, v resp.Value, err error, hooked bool) (resp.Value, error) {
	c.Out = out
	// A bytes.Buffer takes every write, so the Flush cannot fail.
	if err != nil || v.Type != 0 || c.Sess.heldW.Flush() != nil || c.Sess.held.Len() == 0 {
		return v, err
	}
	if hooked {
		return resp.NewReader(&c.Sess.held).ReadValue()
	}
	err = out.WriteRaw(c.Sess.held.Bytes())
	if c.Sess.held.Cap() > maxHeld {
		c.Sess.held = bytes.Buffer{} // a connection keeps no large report
	}
	return v, err
}

// maxHeld is the largest hold buffer a connection keeps between commands.
const maxHeld = 64 << 10

// complianceMiddleware is the one gate every command passes, decided from
// its flags, the store's mode and the session's principal (DESIGN.md §3):
// no handler re-checks a role or AUTH. The core decides, and audits, the
// raw-engine and admin refusals, and a GDPR command's before AUTH.
func complianceMiddleware(next Handler) Handler {
	return func(ctx *Ctx) (resp.Value, error) {
		st, f := ctx.Srv.store, ctx.Cmd.Flags
		switch {
		case f&FlagGDPR != 0 && !st.Config().Compliant:
			return resp.Value{}, fmt.Errorf("%w: %s needs the compliance layer", core.ErrNotCompliant, ctx.Cmd.Name)
		case f&(FlagNoCompliance|FlagAdmin) != 0, f&FlagGDPR != 0 && ctx.Core.Actor == "":
			if err := st.Authorize(ctx.Core, ctx.Cmd.Name, f&FlagNoCompliance != 0, f&FlagReadonly != 0); err != nil {
				return resp.Value{}, err
			}
		}
		return next(ctx)
	}
}

// execute runs one parsed command through the registry: lookup, arity
// check, middleware pipeline, error mapping.
func (s *Server) execute(sess *connState, args [][]byte) resp.Value {
	name := strings.ToUpper(string(args[0]))
	cmd, ok := commandTable[name]
	if !ok {
		return resp.ErrorValue("ERR unknown command '" + strings.ToLower(name) + "'")
	}
	a := args[1:]
	if len(a) < cmd.MinArgs || (cmd.MaxArgs >= 0 && len(a) > cmd.MaxArgs) {
		return wrongArity(cmd.Name)
	}
	// The ASKING flag covers exactly one following command: consume it
	// here so an early return (arity error upstream, redirect, refusal)
	// cannot leak it onto a later command.
	asking := sess.asking
	sess.asking = false
	ctx := &Ctx{
		Srv:    s,
		Sess:   sess,
		Cmd:    cmd,
		Args:   a,
		Core:   core.Ctx{Actor: sess.actor, Purpose: sess.purpose},
		Asking: asking,
		Out:    sess.w,
	}
	v, err := s.pipeline(ctx)
	if err != nil {
		return errReply(err)
	}
	return v
}

// --- COMMAND introspection, generated from the table ---

func init() {
	register(Command{
		Name: "COMMAND", MinArgs: 0, MaxArgs: -1, Flags: FlagReadonly,
		Summary: "introspect the command table (COMMAND [COUNT|DOCS [name ...]|INFO name ...])",
		Handler: cmdCommand,
	})
}

func cmdCommand(ctx *Ctx) (resp.Value, error) {
	if len(ctx.Args) == 0 {
		vs := make([]resp.Value, 0, len(commandTable))
		for _, name := range commandNames() {
			vs = append(vs, commandInfoValue(commandTable[name]))
		}
		return resp.ArrayValue(vs...), nil
	}
	switch strings.ToUpper(string(ctx.Args[0])) {
	case "COUNT":
		if len(ctx.Args) != 1 {
			return resp.Value{}, errSyntax
		}
		return resp.IntegerValue(int64(len(commandTable))), nil
	case "INFO":
		vs := make([]resp.Value, 0, len(ctx.Args)-1)
		for _, a := range ctx.Args[1:] {
			c, ok := commandTable[strings.ToUpper(string(a))]
			if !ok {
				vs = append(vs, resp.NullArrayValue())
				continue
			}
			vs = append(vs, commandInfoValue(c))
		}
		return resp.ArrayValue(vs...), nil
	case "DOCS":
		names := commandNames()
		if len(ctx.Args) > 1 {
			names = names[:0]
			for _, a := range ctx.Args[1:] {
				if _, ok := commandTable[strings.ToUpper(string(a))]; ok {
					names = append(names, strings.ToUpper(string(a)))
				}
			}
		}
		vs := make([]resp.Value, 0, 2*len(names))
		for _, name := range names {
			c := commandTable[name]
			vs = append(vs,
				resp.BulkStringValue(strings.ToLower(c.Name)),
				resp.ArrayValue(
					resp.BulkStringValue("summary"),
					resp.BulkStringValue(c.Summary),
					resp.BulkStringValue("arity"),
					resp.IntegerValue(c.arity()),
					resp.BulkStringValue("flags"),
					stringsArray(c.Flags.Names()),
				))
		}
		return resp.ArrayValue(vs...), nil
	default:
		return resp.Value{}, fmt.Errorf("unknown COMMAND subcommand '%s'", string(ctx.Args[0]))
	}
}

// commandInfoValue renders one table row in Redis COMMAND reply shape:
// [name, arity, [flags...]].
func commandInfoValue(c *Command) resp.Value {
	return resp.ArrayValue(
		resp.BulkStringValue(strings.ToLower(c.Name)),
		resp.IntegerValue(c.arity()),
		stringsArray(c.Flags.Names()),
	)
}
