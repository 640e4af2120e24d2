package gdprkv

import (
	"context"
	"strconv"
	"sync"

	"gdprstore/internal/resp"
)

// Pipeline queues commands client-side and submits them in one shot:
// Exec checks out one connection per target node, writes every queued
// command, flushes once, and reads the replies back in order. An N-op
// pipeline therefore pays ~1 round trip instead of N — the server already
// coalesces its reply flushes per drained read buffer, so the whole
// exchange is two wire transfers.
//
// The queue methods mirror the Client's scalar surface but never touch
// the network; they return the Pipeline for chaining. Results come back
// positionally from Exec: result i belongs to the i-th queued command,
// and an error reply in the middle occupies its own slot without
// desyncing later replies (RESP replies are strictly ordered — an error
// is just a reply).
//
// A Pipeline is NOT safe for concurrent use; build and Exec it from one
// goroutine. For transparent cross-goroutine coalescing use WithAutoBatch
// instead. See DESIGN.md §12.
type Pipeline struct {
	c   *Client
	ops []pipeOp
}

// pipeOp is one queued command: its routing key (empty for un-keyed
// commands, which target the primary/default node) and raw arguments.
type pipeOp struct {
	key  string
	args [][]byte
	// nullIsMiss maps a null reply to ErrNotFound (Get/GGet semantics).
	nullIsMiss bool
}

// PipeResult is one positional outcome of Pipeline.Exec: the decoded
// reply and its typed error. Err carries the same taxonomy the scalar
// methods produce — *ServerError matching sentinels under errors.Is,
// ErrNotFound for a missing key on Get/GGet, or a transport error when
// the node's exchange failed.
type PipeResult struct {
	Value resp.Value
	Err   error
}

// Bytes returns the reply payload for value-shaped results (Get, GGet).
func (r PipeResult) Bytes() ([]byte, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Value.Str, nil
}

// Int returns the reply for integer-shaped results (Del, Expire, TTL).
func (r PipeResult) Int() (int64, error) {
	if r.Err != nil {
		return 0, r.Err
	}
	return r.Value.Int, nil
}

// Pipeline returns an empty pipeline bound to the client. Exec routes
// each queued command to the owner of its key's slot, grouped per node,
// so on a standalone client the whole pipeline runs on the primary over a
// single connection.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c}
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return len(p.ops) }

func (p *Pipeline) queue(key string, nullIsMiss bool, args ...[]byte) *Pipeline {
	p.ops = append(p.ops, pipeOp{key: key, args: args, nullIsMiss: nullIsMiss})
	return p
}

// Get queues a GET; the result maps a null reply to ErrNotFound.
func (p *Pipeline) Get(key string) *Pipeline {
	return p.queue(key, true, cmdGET, []byte(key))
}

// Set queues a SET.
func (p *Pipeline) Set(key string, value []byte) *Pipeline {
	return p.queue(key, false, cmdSET, []byte(key), value)
}

// SetEX queues a SET with a TTL in seconds.
func (p *Pipeline) SetEX(key string, value []byte, seconds int64) *Pipeline {
	return p.queue(key, false, cmdSET, []byte(key), value, cmdEX,
		[]byte(strconv.FormatInt(seconds, 10)))
}

// Del queues a DEL. In cluster mode the keys must share a slot (the
// server rejects mixed-slot batches with CROSSSLOT); routing follows the
// first key.
func (p *Pipeline) Del(keys ...string) *Pipeline {
	a := make([][]byte, 0, len(keys)+1)
	a = append(a, cmdDEL)
	for _, k := range keys {
		a = append(a, []byte(k))
	}
	routeKey := ""
	if len(keys) > 0 {
		routeKey = keys[0]
	}
	return p.queue(routeKey, false, a...)
}

// Expire queues an EXPIRE (result Int is 1 when the key existed).
func (p *Pipeline) Expire(key string, seconds int64) *Pipeline {
	return p.queue(key, false, cmdEXPIRE, []byte(key), []byte(strconv.FormatInt(seconds, 10)))
}

// TTL queues a TTL (result Int is -1 no TTL, -2 missing).
func (p *Pipeline) TTL(key string) *Pipeline {
	return p.queue(key, false, cmdTTL, []byte(key))
}

// GPut queues a GPUT carrying the record's GDPR metadata.
func (p *Pipeline) GPut(key string, value []byte, opts PutOptions) *Pipeline {
	a := make([][]byte, 0, 3+14)
	a = append(a, cmdGPUT, []byte(key), value)
	a = append(a, opts.optionArgs()...)
	return p.queue(key, false, a...)
}

// GGet queues a GGET; the result maps a null reply to ErrNotFound.
func (p *Pipeline) GGet(key string) *Pipeline {
	return p.queue(key, true, cmdGGET, []byte(key))
}

// GDel queues a GDEL.
func (p *Pipeline) GDel(key string) *Pipeline {
	return p.queue(key, false, cmdGDEL, []byte(key))
}

// Do queues an arbitrary command verbatim. Un-keyed from the router's
// point of view: it targets the primary (the default node in cluster
// mode), exactly like Client.Do.
func (p *Pipeline) Do(cmd ...string) *Pipeline {
	a := make([][]byte, len(cmd))
	for i, s := range cmd {
		a[i] = []byte(s)
	}
	return p.queue("", false, a...)
}

// Exec submits the queued commands and returns one PipeResult per
// command, positionally. The returned error is nil unless a node's
// exchange failed at the transport level (dial, pool checkout, I/O,
// cancellation) — in that case every result of that node still carries
// the error in its slot and the first such error is also returned, so
// `res, err := p.Exec(ctx); if err != nil` keeps working for callers who
// don't inspect slots. Server error replies (DENIED, CROSSSLOT, ...) are
// per-slot only and never fail the pipeline.
//
// In cluster mode the queue is split per target node (preserving relative
// order per node; the positional mapping is restored in the result), the
// node exchanges run concurrently, and any op answered with MOVED or ASK
// is followed on its own within the redirect budget, a MOVED refreshing
// the slot map first — a pipeline spanning a live slot migration
// completes with correct positional results.
//
// Exec drains the queue: the pipeline is empty afterwards and can be
// reused.
func (p *Pipeline) Exec(ctx context.Context) ([]PipeResult, error) {
	ops := p.ops
	p.ops = nil
	if len(ops) == 0 {
		return nil, nil
	}
	c := p.c
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.stats.pipelineExecs.Add(1)
	c.stats.pipelineOps.Add(uint64(len(ops)))

	// Bucket the ops per target node, preserving their relative order.
	type bucket struct {
		owner *pool
		idxs  []int
		cmds  [][][]byte
		res   []PipeResult
		err   error
	}
	var buckets []*bucket
	for i, op := range ops {
		owner := c.route(op.key)
		var b *bucket
		for _, x := range buckets {
			if x.owner == owner {
				b = x
				break
			}
		}
		if b == nil {
			b = &bucket{owner: owner}
			buckets = append(buckets, b)
		}
		b.idxs = append(b.idxs, i)
		b.cmds = append(b.cmds, op.args)
	}
	run := func(b *bucket) {
		b.res = make([]PipeResult, len(b.cmds))
		b.err = c.send(ctx, target{class: classPipe, owner: b.owner}, b.cmds, b.res)
	}
	if len(buckets) == 1 {
		run(buckets[0])
	} else {
		var wg sync.WaitGroup
		for _, b := range buckets {
			wg.Add(1)
			go func(b *bucket) {
				defer wg.Done()
				run(b)
			}(b)
		}
		wg.Wait()
	}

	results := make([]PipeResult, len(ops))
	var err error
	for _, b := range buckets {
		for j, i := range b.idxs {
			r := b.res[j]
			if ops[i].nullIsMiss && r.Err == nil && r.Value.Null {
				r.Err = ErrNotFound
			}
			results[i] = r
		}
		if err == nil {
			err = b.err
		}
	}
	return results, err
}
