package gdprkv

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"time"

	"gdprstore/internal/resp"
)

// conn is one established connection: the transport plus its RESP
// encoder/decoder. A conn is owned by exactly one caller at a time (the
// pool hands it out and takes it back), so it needs no internal locking.
type conn struct {
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer

	// broken marks the connection unusable after an I/O failure; the pool
	// evicts and redials instead of returning it to a caller.
	broken bool
	// idleSince is when the conn was last checked in; checkout pings
	// conns that sat idle past the health interval.
	idleSince time.Time
}

// dialConn establishes, secures, and handshakes one connection. The
// whole sequence (TCP dial, TLS handshake, AUTH, PURPOSE) is bounded by
// cfg.dialTimeout and by ctx.
func dialConn(ctx context.Context, addr string, cfg *config) (*conn, error) {
	dctx, cancel := context.WithTimeout(ctx, cfg.dialTimeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gdprkv: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if cfg.tlsConfig != nil {
		tlsConn := tls.Client(nc, cfg.tlsConfig)
		if err := tlsConn.HandshakeContext(dctx); err != nil {
			nc.Close()
			return nil, fmt.Errorf("gdprkv: tls handshake %s: %w", addr, err)
		}
		nc = tlsConn
	}
	c := &conn{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc), idleSince: time.Now()}
	// Session handshake: the pool's whole population speaks as one
	// authenticated principal under one declared purpose.
	if cfg.actor != "" {
		if err := c.expectOK(dctx, cfg.dialTimeout, "AUTH", cfg.actor); err != nil {
			c.close()
			return nil, fmt.Errorf("gdprkv: auth %s: %w", addr, err)
		}
	}
	if cfg.purpose != "" {
		if err := c.expectOK(dctx, cfg.dialTimeout, "PURPOSE", cfg.purpose); err != nil {
			c.close()
			return nil, fmt.Errorf("gdprkv: purpose %s: %w", addr, err)
		}
	}
	return c, nil
}

func (c *conn) close() error { return c.nc.Close() }

// deadline resolves the per-call I/O deadline: now+timeout, tightened to
// the context's own deadline when that is earlier. Every call gets a
// deadline — a dead server surfaces as a timeout error, never a hang.
func deadline(ctx context.Context, timeout time.Duration) time.Time {
	dl := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	return dl
}

// roundTrip writes every command in cmds — behind a one-shot ASKING when
// asking — flushes once, and reads exactly one reply per command into
// res, in order, under the call deadline. Error replies decode through
// wireError into their slot and leave the conn healthy; only transport
// failures return an error, with the count of replies read before it.
// Any early exit after the commands were written marks the conn broken:
// unread replies would desync the next caller, so the pool must discard
// it. With pairs set, a reply that is an array of key/value bulk strings
// (GETUSER's) decodes straight into *pairs, with no Value tree.
func (c *conn) roundTrip(ctx context.Context, timeout time.Duration, asking bool, pairs *map[string][]byte, cmds [][][]byte, res []PipeResult) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := c.nc.SetDeadline(deadline(ctx, timeout)); err != nil {
		c.broken = true
		return 0, err
	}
	if asking {
		if err := c.w.WriteCommandBytes(askingCmd); err != nil {
			return 0, c.ioError(ctx, err)
		}
	}
	for _, args := range cmds {
		if err := c.w.WriteCommandBytes(args); err != nil {
			return 0, c.ioError(ctx, err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return 0, c.ioError(ctx, err)
	}
	if asking {
		if _, err := c.r.ReadValue(); err != nil {
			return 0, c.ioError(ctx, err)
		}
	}
	for i := range cmds {
		if err := ctx.Err(); err != nil {
			c.broken = true
			return i, err
		}
		var v resp.Value
		var err error
		if pairs != nil {
			*pairs, v, err = c.r.ReadPairs()
		} else {
			v, err = c.r.ReadValue()
		}
		if err != nil {
			return i, c.ioError(ctx, err)
		}
		res[i] = PipeResult{Value: v}
		if v.IsError() {
			res[i].Err = wireError(v.Text())
		}
	}
	return len(cmds), nil
}

// do runs one command outside the dispatch loop: the dial handshake and
// the pool's idle check.
func (c *conn) do(ctx context.Context, timeout time.Duration, args ...string) (resp.Value, error) {
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	var res [1]PipeResult
	if _, err := c.roundTrip(ctx, timeout, false, nil, [][][]byte{raw}, res[:]); err != nil {
		return resp.Value{}, err
	}
	return res[0].Value, res[0].Err
}

// ioError marks the conn broken and, when the context expired, reports
// the context's error (wrapping the transport detail) so callers can
// errors.Is against context.DeadlineExceeded / context.Canceled. The
// socket deadline can fire a beat before ctx.Err() flips, so a passed
// context deadline classifies as DeadlineExceeded too.
func (c *conn) ioError(ctx context.Context, err error) error {
	c.broken = true
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("gdprkv: %w (%v)", ctxErr, err)
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return fmt.Errorf("gdprkv: %w (%v)", context.DeadlineExceeded, err)
	}
	return fmt.Errorf("gdprkv: io: %w", err)
}

// expectOK runs a command that must reply +OK (the handshake commands).
func (c *conn) expectOK(ctx context.Context, timeout time.Duration, args ...string) error {
	v, err := c.do(ctx, timeout, args...)
	if err != nil {
		return err
	}
	if v.Text() != "OK" {
		return fmt.Errorf("unexpected reply %q", v.Text())
	}
	return nil
}

// ping verifies liveness with a short-deadline PING, used by the pool's
// health-checked checkout for conns that sat idle.
func (c *conn) ping(timeout time.Duration) bool {
	v, err := c.do(context.Background(), timeout, "PING")
	return err == nil && v.Text() == "PONG"
}
