package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/internal/store"
)

// This file registers every command in the table. Handlers return
// (resp.Value, error); errors are mapped to wire codes by errReply in one
// place, so the vanilla, GDPR and batch families emit consistent
// ERR/DENIED/POLICY/PURPOSEDENIED/ERASED/BASELINE prefixes.

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

func init() {
	// --- session / connection ---
	register(Command{Name: "PING", MinArgs: 0, MaxArgs: 1, Flags: FlagReadonly,
		Summary: "liveness probe; echoes an optional argument",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			if len(ctx.Args) == 1 {
				return resp.BulkValue(ctx.Args[0]), nil
			}
			return resp.SimpleStringValue("PONG"), nil
		}})
	register(Command{Name: "ECHO", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly,
		Summary: "echo the argument",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			return resp.BulkValue(ctx.Args[0]), nil
		}})
	register(Command{Name: "AUTH", MinArgs: 1, MaxArgs: 1,
		Summary: "set the connection's authenticated principal",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			ctx.Sess.actor = string(ctx.Args[0])
			return resp.SimpleStringValue("OK"), nil
		}})
	register(Command{Name: "PURPOSE", MinArgs: 1, MaxArgs: 1,
		Summary: "declare the connection's processing purpose (Art. 5)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			ctx.Sess.purpose = string(ctx.Args[0])
			return resp.SimpleStringValue("OK"), nil
		}})

	// --- vanilla engine surface (baseline benchmarks) ---
	register(Command{Name: "SET", MinArgs: 2, MaxArgs: -1, Flags: FlagWrite | FlagNoCompliance, Keys: keysFirst,
		Summary: "SET key value [EX seconds] [KEEPTTL] on the raw engine",
		Handler: cmdSet})
	register(Command{Name: "GET", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagNoCompliance, Keys: keysFirst,
		Summary: "read a raw value",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			v, ok := ctx.Srv.store.Engine().Get(string(ctx.Args[0]))
			if !ok {
				return resp.NullValue(), nil
			}
			return resp.BulkValue(v), nil
		}})
	register(Command{Name: "MSET", MinArgs: 2, MaxArgs: -1, Flags: FlagWrite | FlagNoCompliance, Keys: keysPairs,
		Summary: "MSET key value [key value ...]: batch write, one lock + one AOF record",
		Handler: cmdMSet})
	register(Command{Name: "MGET", MinArgs: 1, MaxArgs: -1, Flags: FlagReadonly | FlagNoCompliance, Keys: keysAll,
		Summary: "MGET key [key ...]: batch read, one lock acquisition",
		Handler: cmdMGet})
	register(Command{Name: "DEL", MinArgs: 1, MaxArgs: -1, Flags: FlagWrite | FlagNoCompliance, Keys: keysAll,
		Summary: "delete keys, returning how many existed",
		Handler: cmdDel})
	register(Command{Name: "UNLINK", MinArgs: 1, MaxArgs: -1, Flags: FlagWrite | FlagNoCompliance, Keys: keysAll,
		Summary: "alias of DEL (reclamation is synchronous either way)",
		Handler: cmdDel})
	register(Command{Name: "EXISTS", MinArgs: 1, MaxArgs: -1, Flags: FlagReadonly | FlagNoCompliance, Keys: keysAll,
		Summary: "count how many of the given keys exist",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			n := 0
			for _, k := range ctx.Args {
				if ctx.Srv.store.Engine().Exists(string(k)) {
					n++
				}
			}
			return resp.IntegerValue(int64(n)), nil
		}})
	register(Command{Name: "EXPIRE", MinArgs: 2, MaxArgs: 2, Flags: FlagWrite, Keys: keysFirst,
		Summary: "set a TTL in seconds (a compliant store checks and audits it as a write)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			ttl, ok := parseSeconds(ctx.Args[1])
			if !ok {
				return resp.Value{}, errors.New("value is not an integer")
			}
			switch err := ctx.Srv.store.Expire(ctx.Core, string(ctx.Args[0]), ttl); {
			case errors.Is(err, core.ErrNotFound):
				return resp.IntegerValue(0), nil
			case err != nil:
				return resp.Value{}, err
			}
			return resp.IntegerValue(1), nil
		}})
	register(Command{Name: "EXPIREAT", MinArgs: 2, MaxArgs: 2, Flags: FlagWrite | FlagNoCompliance, Keys: keysFirst,
		Summary: "set an absolute unix-seconds retention deadline",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			unix, err := strconv.ParseInt(string(ctx.Args[1]), 10, 64)
			if err != nil {
				return resp.Value{}, errors.New("value is not an integer")
			}
			if ctx.Srv.store.Engine().ExpireAt(string(ctx.Args[0]), time.Unix(unix, 0)) {
				return resp.IntegerValue(1), nil
			}
			return resp.IntegerValue(0), nil
		}})
	register(Command{Name: "PERSIST", MinArgs: 1, MaxArgs: 1, Flags: FlagWrite | FlagNoCompliance, Keys: keysFirst,
		Summary: "drop a key's TTL",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			if ctx.Srv.store.Engine().Persist(string(ctx.Args[0])) {
				return resp.IntegerValue(1), nil
			}
			return resp.IntegerValue(0), nil
		}})
	register(Command{Name: "TTL", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagNoCompliance, Keys: keysFirst,
		Summary: "remaining TTL in seconds (-1 none, -2 missing)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			d, st := ctx.Srv.store.Engine().TTL(string(ctx.Args[0]))
			switch st {
			case store.TTLMissing:
				return resp.IntegerValue(-2), nil
			case store.TTLNone:
				return resp.IntegerValue(-1), nil
			default:
				return resp.IntegerValue(int64(d / time.Second)), nil
			}
		}})
	register(Command{Name: "KEYS", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagNoCompliance,
		Summary: "glob-match the whole keyspace",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			return stringsArray(ctx.Srv.store.Engine().Keys(string(ctx.Args[0]))), nil
		}})
	register(Command{Name: "SCAN", MinArgs: 1, MaxArgs: -1, Flags: FlagReadonly | FlagNoCompliance,
		Summary: "SCAN cursor [MATCH pattern] [COUNT n]: incremental keyspace iteration",
		Handler: cmdScan})
	register(Command{Name: "DBSIZE", MinArgs: 0, MaxArgs: 0, Flags: FlagReadonly | FlagAdmin,
		Summary: "number of readable keys (owner records and erased records awaiting the sweep not counted)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			return resp.IntegerValue(int64(ctx.Srv.store.Len())), nil
		}})
	register(Command{Name: "FLUSHALL", MinArgs: 0, MaxArgs: 0, Flags: FlagWrite | FlagAdmin,
		Summary: "remove every key and all GDPR metadata, standing objections included",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			// Store-level flush: clears the engine AND the metadata index in
			// one cut, so the live primary agrees with replicas and with
			// replay (which both reset metadata on the FLUSHALL record).
			ctx.Srv.store.FlushAll()
			return resp.SimpleStringValue("OK"), nil
		}})
	register(Command{Name: "INFO", MinArgs: 0, MaxArgs: 1, Flags: FlagReadonly | FlagAdmin,
		// The summary regenerates from the section registry, so it can
		// never again go stale when a PR adds a section.
		Summary: "INFO [section]: server and store health, Redis INFO style (sections: " +
			strings.Join(InfoSectionNames(), ", ") + ")",
		Handler: cmdInfo})

	// --- GDPR command family (compliance path) ---
	register(Command{Name: "GPUT", MinArgs: 2, MaxArgs: -1, Flags: FlagWrite | FlagGDPR, Keys: keysFirst, Owner: ownerGPut,
		Summary: "GPUT key value OWNER o [PURPOSES p,..] [TTL s] [ORIGIN x] [LOCATION l] [SHAREDWITH a,..] [AUTODECIDE]",
		Handler: cmdGPut})
	register(Command{Name: "GGET", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst,
		Summary: "read personal data under the session's actor and purpose",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			v, err := ctx.Srv.store.Get(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return resp.BulkValue(v), nil
		}})
	register(Command{Name: "GDEL", MinArgs: 1, MaxArgs: 1, Flags: FlagWrite | FlagGDPR, Keys: keysFirst,
		Summary: "delete personal data (real-time timing compacts the AOF)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			if err := ctx.Srv.store.Delete(ctx.Core, string(ctx.Args[0])); err != nil {
				return resp.Value{}, err
			}
			return resp.IntegerValue(1), nil
		}})
	register(Command{Name: "GMPUT", MinArgs: 3, MaxArgs: -1, Flags: FlagWrite | FlagGDPR, Keys: keysGMPut, Owner: ownerGMPut,
		Summary: "GMPUT npairs k1 v1 ... kN vN [put options]: batch write with shared metadata, one AOF append + one audit record",
		Handler: cmdGMPut})
	register(Command{Name: "GMGET", MinArgs: 1, MaxArgs: -1, Flags: FlagReadonly | FlagGDPR, Keys: keysAll,
		Summary: "GMGET key [key ...]: batch compliance-path read; per-key errors reported in-array",
		Handler: cmdGMGet})
	register(Command{Name: "GETMETA", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst,
		Summary: "read a record's GDPR metadata as JSON",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			m, err := ctx.Srv.store.Metadata(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return jsonValue(m)
		}})
	register(Command{Name: "GETUSER", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "Art. 15 right of access: every record of a data subject",
		Handler: cmdGetUser})
	register(Command{Name: "GETUSERDATA", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "alias of GETUSER (GDPRbench's name for the right of access)",
		Handler: cmdGetUser})
	register(Command{Name: "ACCESS", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "Art. 15 disclosure report (purposes, recipients, storage periods)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			rep, err := ctx.Srv.store.Access(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return jsonValue(rep)
		}})
	register(Command{Name: "EXPORTUSER", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "Art. 20 portability payload (JSON)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			b, err := ctx.Srv.store.Export(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return resp.BulkValue(b), nil
		}})
	register(Command{Name: "FORGETUSER", MinArgs: 1, MaxArgs: 1, Flags: FlagWrite | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "Art. 17 erasure of a data subject; returns records erased",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			n, err := ctx.Srv.store.Forget(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return resp.IntegerValue(int64(n)), nil
		}})
	register(Command{Name: "OBJECT", MinArgs: 2, MaxArgs: 2, Flags: FlagWrite | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "Art. 21 objection: OBJECT owner purpose",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			return okOr(ctx.Srv.store.Object(ctx.Core, string(ctx.Args[0]), string(ctx.Args[1])))
		}})
	register(Command{Name: "UNOBJECT", MinArgs: 2, MaxArgs: 2, Flags: FlagWrite | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "withdraw an Art. 21 objection: UNOBJECT owner purpose",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			return okOr(ctx.Srv.store.Unobject(ctx.Core, string(ctx.Args[0]), string(ctx.Args[1])))
		}})
	register(Command{Name: "OWNERKEYS", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR, Keys: keysFirst, Owner: ownerFirst,
		Summary: "keys owned by a data subject (metadata index lookup)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			keys, err := ctx.Srv.store.OwnerKeys(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return stringsArray(keys), nil
		}})
	register(Command{Name: "KEYSBYPURPOSE", MinArgs: 1, MaxArgs: 1, Flags: FlagReadonly | FlagGDPR,
		Summary: "keys processable under a purpose, objections applied",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			keys, err := ctx.Srv.store.KeysByPurpose(ctx.Core, string(ctx.Args[0]))
			if err != nil {
				return resp.Value{}, err
			}
			return stringsArray(keys), nil
		}})
	register(Command{Name: "BREACH", MinArgs: 2, MaxArgs: 2, Flags: FlagReadonly | FlagGDPR,
		Summary: "Art. 33/34 breach report over [from, to) (RFC3339 timestamps)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			from, err1 := time.Parse(time.RFC3339, string(ctx.Args[0]))
			to, err2 := time.Parse(time.RFC3339, string(ctx.Args[1]))
			if err1 != nil || err2 != nil {
				return resp.Value{}, errors.New("timestamps must be RFC3339")
			}
			rep, err := ctx.Srv.store.Breach(ctx.Core, from, to)
			if err != nil {
				return resp.Value{}, err
			}
			return jsonValue(rep)
		}})

	// --- operations ---
	register(Command{Name: "COMPACT", MinArgs: 0, MaxArgs: 0, Flags: FlagWrite | FlagAdmin,
		Summary: "force an AOF compaction now",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			if err := ctx.Srv.store.Compact(ctx.Core); err != nil {
				return resp.Value{}, err
			}
			return resp.SimpleStringValue("OK"), nil
		}})
	register(Command{Name: "MAINTAIN", MinArgs: 0, MaxArgs: 0, Flags: FlagWrite | FlagAdmin,
		Summary: "run one maintenance pass (grants, erased records, deferred compaction)",
		Handler: func(ctx *Ctx) (resp.Value, error) {
			st := ctx.Srv.store.Maintain()
			return resp.SimpleStringValue(fmt.Sprintf(
				"grants=%d rewrote=%v", st.GrantsPurged, st.Rewrote)), nil
		}})
	register(Command{Name: "ACL", MinArgs: 1, MaxArgs: -1, Flags: FlagWrite | FlagAdmin,
		Summary: "ACL ADDPRINCIPAL|DELPRINCIPAL|GRANT|REVOKE: principal and grant management",
		Handler: cmdACL})
}

// okOr replies OK, or err when there is one.
func okOr(err error) (resp.Value, error) {
	if err != nil {
		return resp.Value{}, err
	}
	return resp.SimpleStringValue("OK"), nil
}

// cmdGetUser serves GETUSER and GETUSERDATA. UserValues reads the whole
// report first, which is all that can fail, then hands it to the render,
// which writes it through ctx.Writer as one array of key/value pairs,
// allocating nothing per record.
func cmdGetUser(ctx *Ctx) (resp.Value, error) {
	return resp.Value{}, ctx.Srv.store.UserValues(ctx.Core, string(ctx.Args[0]), func(keys []string, values [][]byte) error {
		w := ctx.Writer()
		err := w.WriteArrayHeader(2 * len(keys))
		for i := 0; i < len(keys) && err == nil; i++ {
			if err = w.WriteBulkString(keys[i]); err == nil {
				err = w.WriteBulk(values[i])
			}
		}
		return err
	})
}

func jsonValue(v any) (resp.Value, error) {
	b, err := jsonMarshal(v)
	if err != nil {
		return resp.Value{}, err
	}
	return resp.BulkValue(b), nil
}

// cmdSet implements SET key value [EX seconds] [KEEPTTL] against the raw
// engine (the non-GDPR path, used by baseline benchmarks).
func cmdSet(ctx *Ctx) (resp.Value, error) {
	a := ctx.Args
	key, val := string(a[0]), a[1]
	var ex time.Duration
	keepTTL := false
	for i := 2; i < len(a); i++ {
		switch strings.ToUpper(string(a[i])) {
		case "EX":
			if i+1 >= len(a) {
				return resp.Value{}, errSyntax
			}
			d, ok := parseSeconds(a[i+1])
			if !ok || d <= 0 {
				return resp.Value{}, errors.New("invalid expire time")
			}
			ex = d
			i++
		case "KEEPTTL":
			keepTTL = true
		default:
			return resp.Value{}, errSyntax
		}
	}
	eng := ctx.Srv.store.Engine()
	switch {
	case ex > 0:
		eng.SetEX(key, val, ex)
	case keepTTL:
		eng.SetKeepTTL(key, val)
	default:
		eng.Set(key, val)
	}
	return resp.SimpleStringValue("OK"), nil
}

// cmdMSet implements MSET key value [key value ...]: the whole batch is
// applied under one engine lock and journaled as a single AOF record.
func cmdMSet(ctx *Ctx) (resp.Value, error) {
	if len(ctx.Args)%2 != 0 {
		return resp.Value{}, wrongArityErr("MSET")
	}
	n := len(ctx.Args) / 2
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = string(ctx.Args[2*i])
		vals[i] = ctx.Args[2*i+1]
	}
	ctx.Srv.store.Engine().SetBatch(keys, vals)
	return resp.SimpleStringValue("OK"), nil
}

// cmdMGet implements MGET key [key ...]; missing keys reply null.
func cmdMGet(ctx *Ctx) (resp.Value, error) {
	keys := make([]string, len(ctx.Args))
	for i, k := range ctx.Args {
		keys[i] = string(k)
	}
	vals, present := ctx.Srv.store.Engine().GetBatch(keys)
	vs := make([]resp.Value, len(keys))
	for i := range keys {
		if present[i] {
			vs[i] = resp.BulkValue(vals[i])
		} else {
			vs[i] = resp.NullValue()
		}
	}
	return resp.ArrayValue(vs...), nil
}

func cmdDel(ctx *Ctx) (resp.Value, error) {
	keys := make([]string, len(ctx.Args))
	for i, k := range ctx.Args {
		keys[i] = string(k)
	}
	return resp.IntegerValue(int64(ctx.Srv.store.Engine().Del(keys...))), nil
}

// cmdScan implements SCAN cursor [MATCH pattern] [COUNT n].
func cmdScan(ctx *Ctx) (resp.Value, error) {
	a := ctx.Args
	cursor, err := strconv.ParseUint(string(a[0]), 10, 64)
	if err != nil {
		return resp.Value{}, errors.New("invalid cursor")
	}
	pattern := "*"
	count := 10
	for i := 1; i < len(a); i++ {
		switch strings.ToUpper(string(a[i])) {
		case "MATCH":
			if i+1 >= len(a) {
				return resp.Value{}, errSyntax
			}
			pattern = string(a[i+1])
			i++
		case "COUNT":
			if i+1 >= len(a) {
				return resp.Value{}, errSyntax
			}
			n, err := strconv.Atoi(string(a[i+1]))
			if err != nil || n <= 0 {
				return resp.Value{}, errors.New("invalid count")
			}
			count = n
			i++
		default:
			return resp.Value{}, errSyntax
		}
	}
	keys, next := ctx.Srv.store.Engine().Scan(cursor, pattern, count)
	return resp.ArrayValue(
		resp.BulkStringValue(strconv.FormatUint(next, 10)),
		stringsArray(keys),
	), nil
}

// parsePutOptions parses the GPUT/GMPUT option tail:
//
//	[OWNER o] [PURPOSES p1,p2] [TTL secs] [ORIGIN x] [LOCATION l]
//	[SHAREDWITH a,b] [AUTODECIDE]
func parsePutOptions(a [][]byte) (core.PutOptions, error) {
	var opts core.PutOptions
	for i := 0; i < len(a); i++ {
		tok := strings.ToUpper(string(a[i]))
		need := func() bool { return i+1 < len(a) }
		switch tok {
		case "OWNER":
			if !need() {
				return opts, errSyntax
			}
			opts.Owner = string(a[i+1])
			i++
		case "PURPOSES":
			if !need() {
				return opts, errSyntax
			}
			opts.Purposes = splitNonEmpty(string(a[i+1]))
			i++
		case "TTL":
			if !need() {
				return opts, errSyntax
			}
			d, ok := parseSeconds(a[i+1])
			if !ok || d <= 0 {
				return opts, errors.New("invalid ttl")
			}
			opts.TTL = d
			i++
		case "ORIGIN":
			if !need() {
				return opts, errSyntax
			}
			opts.Origin = string(a[i+1])
			i++
		case "LOCATION":
			if !need() {
				return opts, errSyntax
			}
			opts.Location = string(a[i+1])
			i++
		case "SHAREDWITH":
			if !need() {
				return opts, errSyntax
			}
			opts.SharedWith = splitNonEmpty(string(a[i+1]))
			i++
		case "AUTODECIDE":
			opts.AutomatedDecisions = true
		default:
			return opts, fmt.Errorf("syntax error near '%s'", string(a[i]))
		}
	}
	return opts, nil
}

// cmdGPut implements
//
//	GPUT key value [put options]
func cmdGPut(ctx *Ctx) (resp.Value, error) {
	key, val := string(ctx.Args[0]), ctx.Args[1]
	opts, err := parsePutOptions(ctx.Args[2:])
	if err != nil {
		return resp.Value{}, err
	}
	if err := ctx.Srv.store.Put(ctx.Core, key, val, opts); err != nil {
		return resp.Value{}, err
	}
	return resp.SimpleStringValue("OK"), nil
}

// cmdGMPut implements
//
//	GMPUT npairs key1 value1 ... keyN valueN [put options]
//
// The metadata options are shared by the whole batch; the store applies
// them with one lock acquisition, one AOF append and one audit record.
func cmdGMPut(ctx *Ctx) (resp.Value, error) {
	n, err := strconv.Atoi(string(ctx.Args[0]))
	if err != nil || n <= 0 {
		return resp.Value{}, errors.New("invalid pair count")
	}
	// Compare against the argument count without multiplying n, which a
	// huge pair count could overflow.
	if n > (len(ctx.Args)-1)/2 {
		return resp.Value{}, wrongArityErr("GMPUT")
	}
	entries := make([]core.BatchEntry, n)
	for i := 0; i < n; i++ {
		entries[i] = core.BatchEntry{Key: string(ctx.Args[1+2*i]), Value: ctx.Args[2+2*i]}
	}
	opts, err := parsePutOptions(ctx.Args[1+2*n:])
	if err != nil {
		return resp.Value{}, err
	}
	if err := ctx.Srv.store.PutBatch(ctx.Core, entries, opts); err != nil {
		return resp.Value{}, err
	}
	return resp.SimpleStringValue("OK"), nil
}

// cmdGMGet implements GMGET key [key ...]: one reply per key, positional.
// Missing keys reply null; refused keys reply their usual error code
// in-array, so one denial does not mask the rest of the batch.
func cmdGMGet(ctx *Ctx) (resp.Value, error) {
	keys := make([]string, len(ctx.Args))
	for i, k := range ctx.Args {
		keys[i] = string(k)
	}
	results, err := ctx.Srv.store.GetBatch(ctx.Core, keys)
	if err != nil {
		return resp.Value{}, err
	}
	vs := make([]resp.Value, len(results))
	for i, r := range results {
		if r.Err != nil {
			vs[i] = errReply(r.Err) // NullValue for not-found, coded error otherwise
		} else {
			vs[i] = resp.BulkValue(r.Value)
		}
	}
	return resp.ArrayValue(vs...), nil
}

// wrongArityErr lets a handler that discovers an arity violation after
// deeper parsing (GMPUT's pair count) emit the standard message.
func wrongArityErr(cmd string) error {
	return fmt.Errorf("wrong number of arguments for '%s'", strings.ToLower(cmd))
}

// maxSeconds is the largest whole-seconds count a time.Duration holds.
const maxSeconds = math.MaxInt64 / int64(time.Second)

// parseSeconds parses a seconds argument (EXPIRE, SET EX, TTL options) as
// a duration. It reports false for a non-integer and for a count beyond
// ±maxSeconds, which would wrap to a duration of the wrong sign; the sign
// rule is the caller's.
func parseSeconds(b []byte) (time.Duration, bool) {
	secs, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil || secs > maxSeconds || secs < -maxSeconds {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

func splitNonEmpty(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// cmdACL implements
//
//	ACL ADDPRINCIPAL id subject|processor|controller|regulator
//	ACL DELPRINCIPAL id
//	ACL GRANT principal purpose [OWNER o] [TTL secs]
//	ACL REVOKE principal purpose [OWNER o]
func cmdACL(ctx *Ctx) (resp.Value, error) {
	s := ctx.Srv
	a := ctx.Args
	sub := strings.ToUpper(string(a[0]))
	rest := a[1:]
	switch sub {
	case "ADDPRINCIPAL":
		if len(rest) != 2 {
			return wrongArity("ACL ADDPRINCIPAL"), nil
		}
		role, ok := parseRole(string(rest[1]))
		if !ok {
			return resp.Value{}, fmt.Errorf("unknown role '%s'", string(rest[1]))
		}
		s.store.ACL().AddPrincipal(acl.Principal{ID: string(rest[0]), Role: role})
		return resp.SimpleStringValue("OK"), nil
	case "DELPRINCIPAL":
		if len(rest) != 1 {
			return wrongArity("ACL DELPRINCIPAL"), nil
		}
		s.store.ACL().RemovePrincipal(string(rest[0]))
		return resp.SimpleStringValue("OK"), nil
	case "GRANT":
		if len(rest) < 2 {
			return wrongArity("ACL GRANT"), nil
		}
		g := acl.Grant{Principal: string(rest[0]), Purpose: string(rest[1])}
		for i := 2; i < len(rest); i++ {
			switch strings.ToUpper(string(rest[i])) {
			case "OWNER":
				if i+1 >= len(rest) {
					return resp.Value{}, errSyntax
				}
				g.Owner = string(rest[i+1])
				i++
			case "TTL":
				if i+1 >= len(rest) {
					return resp.Value{}, errSyntax
				}
				d, ok := parseSeconds(rest[i+1])
				if !ok || d <= 0 {
					return resp.Value{}, errors.New("invalid ttl")
				}
				g.Expires = s.clock.Now().Add(d)
				i++
			default:
				return resp.Value{}, errSyntax
			}
		}
		if err := s.store.ACL().AddGrant(g); err != nil {
			return resp.Value{}, err
		}
		return resp.SimpleStringValue("OK"), nil
	case "REVOKE":
		if len(rest) < 2 {
			return wrongArity("ACL REVOKE"), nil
		}
		owner := ""
		if len(rest) >= 4 && strings.ToUpper(string(rest[2])) == "OWNER" {
			owner = string(rest[3])
		}
		n := s.store.ACL().RevokeGrants(string(rest[0]), string(rest[1]), owner)
		return resp.IntegerValue(int64(n)), nil
	default:
		return resp.Value{}, fmt.Errorf("unknown ACL subcommand '%s'", string(a[0]))
	}
}

func parseRole(s string) (acl.Role, bool) {
	switch strings.ToLower(s) {
	case "subject":
		return acl.RoleSubject, true
	case "processor":
		return acl.RoleProcessor, true
	case "controller":
		return acl.RoleController, true
	case "regulator":
		return acl.RoleRegulator, true
	default:
		return 0, false
	}
}

// cmdInfo reports server and store health in Redis INFO style, rendered
// from the shared section registry (sections.go) that also feeds the ops
// server's HTTP /info — one source of truth for both protocols. An
// optional section argument restricts the report.
func cmdInfo(ctx *Ctx) (resp.Value, error) {
	section := ""
	if len(ctx.Args) == 1 {
		section = strings.ToLower(string(ctx.Args[0]))
	}
	snaps, err := ctx.Srv.InfoSnapshot(section)
	if err != nil {
		return resp.Value{}, err
	}
	return resp.BulkStringValue(renderInfoText(snaps)), nil
}
