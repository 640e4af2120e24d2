package gdprkv

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gdprstore/internal/resp"
)

// args builds a raw argument vector from a command name and strings.
func args(name string, rest ...string) [][]byte {
	out := make([][]byte, 0, len(rest)+1)
	out = append(out, []byte(name))
	for _, a := range rest {
		out = append(out, []byte(a))
	}
	return out
}

// Do sends one command verbatim to the primary and returns the decoded
// reply. It is the escape hatch for commands without a typed helper
// (ACL, COMPACT, COMMAND, ...). Error replies come back as *ServerError.
func (c *Client) Do(ctx context.Context, cmd ...string) (resp.Value, error) {
	if len(cmd) == 0 {
		return resp.Value{}, errors.New("gdprkv: Do: empty command")
	}
	return c.call(ctx, classWrite, "", args(cmd[0], cmd[1:]...))
}

// DoArgs sends one command with raw byte arguments to the primary.
func (c *Client) DoArgs(ctx context.Context, name string, raw ...[]byte) (resp.Value, error) {
	a := make([][]byte, 0, len(raw)+1)
	a = append(a, []byte(name))
	a = append(a, raw...)
	return c.call(ctx, classWrite, "", a)
}

// Ping checks primary liveness.
func (c *Client) Ping(ctx context.Context) error {
	v, err := c.call(ctx, classWrite, "", args("PING"))
	if err != nil {
		return err
	}
	if v.Text() != "PONG" {
		return fmt.Errorf("gdprkv: unexpected PING reply %q", v.Text())
	}
	return nil
}

// --- vanilla surface (baseline engine path) ---

// Set stores a raw key/value on the baseline path. Under WithAutoBatch,
// concurrent Sets coalesce into one MSET per flush window.
func (c *Client) Set(ctx context.Context, key string, value []byte) error {
	if c.batcher != nil {
		_, err := c.batcher.do(ctx, kindSet, PutOptions{}, key, value)
		return err
	}
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdSET, []byte(key), value)
	_, err := c.call(ctx, classWrite, key, av.a)
	return err
}

// SetEX stores a raw key/value with a TTL in seconds.
func (c *Client) SetEX(ctx context.Context, key string, value []byte, seconds int64) error {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdSET, []byte(key), value, cmdEX, []byte(strconv.FormatInt(seconds, 10)))
	_, err := c.call(ctx, classWrite, key, av.a)
	return err
}

// Get fetches a raw value; ErrNotFound if missing. Under WithAutoBatch,
// concurrent Gets coalesce into one MGET per flush window.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	return c.value(ctx, kindGet, cmdGET, key)
}

// value reads one value-shaped key (GET, GGET): coalesced under
// WithAutoBatch, a read call otherwise, with a null reply mapped to
// ErrNotFound.
func (c *Client) value(ctx context.Context, kind batchKind, cmd []byte, key string) ([]byte, error) {
	if c.batcher != nil {
		return c.batcher.do(ctx, kind, PutOptions{}, key, nil)
	}
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmd, []byte(key))
	v, err := c.call(ctx, classRead, key, av.a)
	if err != nil {
		return nil, err
	}
	if v.Null {
		return nil, ErrNotFound
	}
	return v.Str, nil
}

// MSet writes every key/value pair in one MSET command — one round
// trip, one server-side lock acquisition and one AOF record for the
// whole batch. keys and values must have equal length. In cluster mode
// the batch is split per slot (one MSET per slot group, reassembled
// transparently); a cross-node batch is then not atomic — a mid-batch
// failure leaves earlier groups applied and is reported.
func (c *Client) MSet(ctx context.Context, keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("gdprkv: MSet: %d keys, %d values", len(keys), len(values))
	}
	return c.batch(ctx, classWrite, keys, func(idxs []int) [][]byte {
		return batchArgs([][]byte{[]byte("MSET")}, keys, values, idxs, nil)
	}, nil)
}

// MGet reads every key in one MGET command. The result is positional; a
// missing key yields a nil entry.
func (c *Client) MGet(ctx context.Context, keys ...string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(keys))
	err := c.batch(ctx, classRead, keys, func(idxs []int) [][]byte {
		return batchArgs([][]byte{[]byte("MGET")}, keys, nil, idxs, nil)
	}, func(idxs []int, v resp.Value) error {
		if len(v.Array) != len(idxs) {
			return fmt.Errorf("gdprkv: malformed MGET reply: %d entries for %d keys", len(v.Array), len(idxs))
		}
		for j, e := range v.Array {
			if !e.Null {
				out[idxs[j]] = e.Str
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Del removes keys, returning how many existed. In cluster mode the keys
// are deleted per slot group and the counts summed.
func (c *Client) Del(ctx context.Context, keys ...string) (int64, error) {
	if len(keys) == 0 {
		// Nothing to split: the server judges the bare DEL's arity.
		_, err := c.call(ctx, classWrite, "", [][]byte{cmdDEL})
		return 0, err
	}
	var n int64
	err := c.batch(ctx, classWrite, keys, func(idxs []int) [][]byte {
		return batchArgs([][]byte{cmdDEL}, keys, nil, idxs, nil)
	}, func(_ []int, v resp.Value) error {
		n += v.Int
		return nil
	})
	return n, err
}

// batch is the one body of the batch helpers: split keys per slot (one
// group on a standalone client), send each group's command, built by
// build, as a call of class, and hand each reply to merge (when non-nil),
// in first-appearance order. A cross-node batch is therefore not atomic:
// a failing group stops the batch and is returned, and earlier groups
// stay applied.
func (c *Client) batch(ctx context.Context, class callClass, keys []string,
	build func(idxs []int) [][]byte, merge func(idxs []int, v resp.Value) error) error {
	for _, idxs := range c.view.Load().split(keys) {
		v, err := c.call(ctx, class, keys[idxs[0]], build(idxs))
		if err != nil {
			return err
		}
		if merge != nil {
			if err := merge(idxs, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// batchArgs renders one group of a batch command: head, then each
// selected key — followed by its value when values is non-nil — then
// tail.
func batchArgs(head [][]byte, keys []string, values [][]byte, idxs []int, tail [][]byte) [][]byte {
	a := make([][]byte, 0, len(head)+2*len(idxs)+len(tail))
	a = append(a, head...)
	for _, i := range idxs {
		a = append(a, []byte(keys[i]))
		if values != nil {
			a = append(a, values[i])
		}
	}
	return append(a, tail...)
}

// Expire sets a TTL in seconds, reporting whether the key existed.
func (c *Client) Expire(ctx context.Context, key string, seconds int64) (bool, error) {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdEXPIRE, []byte(key), []byte(strconv.FormatInt(seconds, 10)))
	v, err := c.call(ctx, classWrite, key, av.a)
	if err != nil {
		return false, err
	}
	return v.Int == 1, nil
}

// TTL returns the TTL in seconds (-1 no TTL, -2 missing).
func (c *Client) TTL(ctx context.Context, key string) (int64, error) {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdTTL, []byte(key))
	v, err := c.call(ctx, classRead, key, av.a)
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Scan iterates the keyspace; returns keys and the next cursor (0 =
// done). Cursors are positions into one node's sorted keyspace; every
// Scan runs on the client's default node, the primary (a cluster
// client's bootstrap seed).
func (c *Client) Scan(ctx context.Context, cursor uint64, match string, count int) ([]string, uint64, error) {
	v, err := c.call(ctx, classRead, "", args("SCAN",
		strconv.FormatUint(cursor, 10), "MATCH", match, "COUNT", strconv.Itoa(count)))
	if err != nil {
		return nil, 0, err
	}
	if len(v.Array) != 2 {
		return nil, 0, errors.New("gdprkv: malformed SCAN reply")
	}
	next, err := strconv.ParseUint(v.Array[0].Text(), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("gdprkv: bad SCAN cursor: %w", err)
	}
	keys := make([]string, len(v.Array[1].Array))
	for i, k := range v.Array[1].Array {
		keys[i] = k.Text()
	}
	return keys, next, nil
}

// Info returns the primary's INFO report; section may be empty for the
// full report, or one of "gdprstore", "replication", "commandstats".
// The report is node-local state; dial a dedicated client per node to
// inspect replicas.
func (c *Client) Info(ctx context.Context, section string) (string, error) {
	a := args("INFO")
	if section != "" {
		a = append(a, []byte(section))
	}
	v, err := c.call(ctx, classWrite, "", a)
	if err != nil {
		return "", err
	}
	return v.Text(), nil
}

// ReplicaOf makes the connected server replicate from the primary at
// host:port (operator command).
func (c *Client) ReplicaOf(ctx context.Context, host, port string) error {
	_, err := c.call(ctx, classWrite, "", args("REPLICAOF", host, port))
	return err
}

// PromoteToPrimary stops the connected server's replication and makes
// it writable (REPLICAOF NO ONE).
func (c *Client) PromoteToPrimary(ctx context.Context) error {
	_, err := c.call(ctx, classWrite, "", args("REPLICAOF", "NO", "ONE"))
	return err
}

// --- GDPR surface (compliance path) ---

// PutOptions carries a record's GDPR metadata for GPut and GMPut.
type PutOptions struct {
	// Owner is the data subject the record belongs to.
	Owner string
	// Purposes are the consented processing purposes.
	Purposes []string
	// TTL is the retention bound; rounded down to whole seconds.
	TTL time.Duration
	// Origin records where the data was collected (Art. 15(1)(g)).
	Origin string
	// Location constrains the storage region (Art. 46).
	Location string
	// SharedWith lists third-party recipients (Art. 15(1)(c)).
	SharedWith []string
	// AutoDecide flags automated decision-making (Art. 22).
	AutoDecide bool
}

// optionArgs renders the metadata as GPUT/GMPUT option tokens.
func (o PutOptions) optionArgs() [][]byte {
	var a [][]byte
	if o.Owner != "" {
		a = append(a, []byte("OWNER"), []byte(o.Owner))
	}
	if len(o.Purposes) > 0 {
		a = append(a, []byte("PURPOSES"), []byte(strings.Join(o.Purposes, ",")))
	}
	if secs := int64(o.TTL / time.Second); secs > 0 {
		a = append(a, []byte("TTL"), []byte(strconv.FormatInt(secs, 10)))
	}
	if o.Origin != "" {
		a = append(a, []byte("ORIGIN"), []byte(o.Origin))
	}
	if o.Location != "" {
		a = append(a, []byte("LOCATION"), []byte(o.Location))
	}
	if len(o.SharedWith) > 0 {
		a = append(a, []byte("SHAREDWITH"), []byte(strings.Join(o.SharedWith, ",")))
	}
	if o.AutoDecide {
		a = append(a, []byte("AUTODECIDE"))
	}
	return a
}

// GPut writes personal data with its metadata. Under WithAutoBatch,
// concurrent GPuts sharing identical options coalesce into one GMPUT per
// flush window.
func (c *Client) GPut(ctx context.Context, key string, value []byte, opts PutOptions) error {
	if c.batcher != nil {
		_, err := c.batcher.do(ctx, kindGPut, opts, key, value)
		return err
	}
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdGPUT, []byte(key), value)
	av.a = append(av.a, opts.optionArgs()...)
	_, err := c.call(ctx, classWrite, key, av.a)
	return err
}

// GMPut writes a batch of personal-data records sharing one metadata
// set in a single GMPUT command: one lock, one AOF append, one audit
// record for the whole batch. In cluster mode the batch is split per
// slot (owner-tagged keys stay one group); a mid-batch failure leaves
// earlier slot groups applied and is reported.
func (c *Client) GMPut(ctx context.Context, keys []string, values [][]byte, opts PutOptions) error {
	if len(keys) != len(values) {
		return fmt.Errorf("gdprkv: GMPut: %d keys, %d values", len(keys), len(values))
	}
	optArgs := opts.optionArgs()
	return c.batch(ctx, classWrite, keys, func(idxs []int) [][]byte {
		head := [][]byte{[]byte("GMPUT"), []byte(strconv.Itoa(len(idxs)))}
		return batchArgs(head, keys, values, idxs, optArgs)
	}, nil)
}

// GGet reads personal data under the client's actor and purpose.
// ErrNotFound if missing. Under WithAutoBatch, concurrent GGets coalesce
// into one GMGET per flush window.
func (c *Client) GGet(ctx context.Context, key string) ([]byte, error) {
	return c.value(ctx, kindGGet, cmdGGET, key)
}

// BatchValue is one positional result of GMGet: the value on success,
// or the per-key error (ErrNotFound for a missing key, a *ServerError
// carrying the DENIED/PURPOSEDENIED/ERASED/... class for a refused one).
type BatchValue struct {
	Value []byte
	Err   error
}

// GMGet reads a batch of personal-data records in one GMGET command. A
// refused or missing key is reported in its slot without failing the
// rest of the batch.
func (c *Client) GMGet(ctx context.Context, keys ...string) ([]BatchValue, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([]BatchValue, len(keys))
	err := c.batch(ctx, classRead, keys, func(idxs []int) [][]byte {
		return batchArgs([][]byte{[]byte("GMGET")}, keys, nil, idxs, nil)
	}, func(idxs []int, v resp.Value) error {
		if len(v.Array) != len(idxs) {
			return fmt.Errorf("gdprkv: malformed GMGET reply: %d entries for %d keys", len(v.Array), len(idxs))
		}
		for j, e := range v.Array {
			switch i := idxs[j]; {
			case e.IsError():
				out[i].Err = wireError(e.Text())
			case e.Null:
				out[i].Err = ErrNotFound
			default:
				out[i].Value = e.Str
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GDel deletes personal data.
func (c *Client) GDel(ctx context.Context, key string) error {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdGDEL, []byte(key))
	_, err := c.call(ctx, classWrite, key, av.a)
	return err
}

// GetUser returns all key/value pairs of a data subject (Art. 15 right
// of access), as the one node that holds the subject (the owner's slot
// node, in cluster mode) answers. The reply decodes straight into the
// map: the values share one buffer, so read them, and copy one before
// changing it.
func (c *Client) GetUser(ctx context.Context, owner string) (map[string][]byte, error) {
	var out map[string][]byte
	cmds := [1][][]byte{args("GETUSER", owner)}
	var res [1]PipeResult
	c.send(ctx, target{class: classWrite, owner: c.route(owner), pairs: &out}, cmds[:], res[:])
	return out, res[0].Err
}

// ExportUser returns the Art. 20 portability payload.
func (c *Client) ExportUser(ctx context.Context, owner string) ([]byte, error) {
	v, err := c.call(ctx, classWrite, owner, args("EXPORTUSER", owner))
	if err != nil {
		return nil, err
	}
	return v.Str, nil
}

// ForgetUser erases a data subject (Art. 17), returning the number of
// records erased on the primary that holds the subject (the owner's slot
// node, in cluster mode); erasure propagates to replicas through the
// replication stream.
func (c *Client) ForgetUser(ctx context.Context, owner string) (int64, error) {
	v, err := c.call(ctx, classWrite, owner, args("FORGETUSER", owner))
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Object records an Art. 21 objection to a processing purpose.
func (c *Client) Object(ctx context.Context, owner, purpose string) error {
	_, err := c.call(ctx, classWrite, owner, args("OBJECT", owner, purpose))
	return err
}

// Unobject withdraws an Art. 21 objection.
func (c *Client) Unobject(ctx context.Context, owner, purpose string) error {
	_, err := c.call(ctx, classWrite, owner, args("UNOBJECT", owner, purpose))
	return err
}
