// Networked replication, replica side. A Node dials the primary, performs
// the REPLCONF handshake (capabilities + actor auth), receives either a
// full sync (streamed snapshot in the AOF record format) or a partial
// resync (backlog tail), then tails the live record stream, applying every
// record to its Applier and acknowledging applied offsets. A dropped link
// reconnects with bounded backoff and resumes via PSYNC <replid> <offset>.

package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdprstore/internal/resp"
)

// Applier consumes replicated journal records. core.Store implements it
// (ApplyReplicated); tests substitute lighter appliers. Records arrive in
// journal order from a single goroutine.
type Applier interface {
	ApplyReplicated(name string, args [][]byte) error
}

// LinkStatus is the replica's view of its link to the primary.
type LinkStatus int

// Link states, in the order a healthy attach traverses them.
const (
	// LinkConnecting: dialing or handshaking.
	LinkConnecting LinkStatus = iota
	// LinkSyncing: receiving a full-sync snapshot.
	LinkSyncing
	// LinkUp: tailing the live stream.
	LinkUp
	// LinkDown: disconnected, waiting to reconnect (or stopped).
	LinkDown
)

// String returns the INFO-replication spelling.
func (s LinkStatus) String() string {
	switch s {
	case LinkConnecting:
		return "connecting"
	case LinkSyncing:
		return "syncing"
	case LinkUp:
		return "up"
	default:
		return "down"
	}
}

// NodeOptions configures DialPrimary.
type NodeOptions struct {
	// Actor is presented via AUTH during the handshake; empty skips AUTH.
	Actor string
	// ReconnectMin/ReconnectMax bound the reconnect backoff (defaults
	// 50ms / 2s; the delay doubles per consecutive failure).
	ReconnectMin, ReconnectMax time.Duration
	// Dial overrides the dialer (tests inject failures); nil uses TCP with
	// a 5s timeout.
	Dial func(addr string) (net.Conn, error)
}

// NodeStatus is a snapshot of the node's replication state.
type NodeStatus struct {
	// PrimaryAddr is the address the node replicates from.
	PrimaryAddr string
	// Link is the current link status.
	Link LinkStatus
	// ReplID is the primary's replication ID learned at full sync.
	ReplID string
	// Offset is the replication offset the node has applied through.
	Offset int64
	// Applied counts records applied (snapshot + stream).
	Applied uint64
	// FullSyncs counts full resyncs performed.
	FullSyncs uint64
	// Reconnects counts link re-establishments after the first.
	Reconnects uint64
	// LastErr is the most recent link or apply error.
	LastErr error
}

// Node maintains a replication link from a primary to a local Applier.
type Node struct {
	applier Applier
	addr    string
	opts    NodeOptions

	mu       sync.Mutex
	status   NodeStatus
	conn     net.Conn
	stopped  bool
	connects uint64
	stop     chan struct{}
	done     chan struct{}
}

// DialPrimary starts replicating from the primary at addr into applier.
// The returned Node manages the link in the background until Close.
func DialPrimary(applier Applier, addr string, opts NodeOptions) *Node {
	if opts.ReconnectMin <= 0 {
		opts.ReconnectMin = 50 * time.Millisecond
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = 2 * time.Second
	}
	if opts.Dial == nil {
		opts.Dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, 5*time.Second)
		}
	}
	n := &Node{
		applier: applier,
		addr:    addr,
		opts:    opts,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	n.status.PrimaryAddr = addr
	n.status.Link = LinkConnecting
	go n.run()
	return n
}

// Status returns a snapshot of the node's replication state.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.status
}

// PrimaryAddr returns the address the node replicates from.
func (n *Node) PrimaryAddr() string { return n.addr }

// Close stops replication and waits for the link goroutine to exit. The
// applied dataset remains as-is (ready for promotion).
func (n *Node) Close() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		<-n.done
		return
	}
	n.stopped = true
	close(n.stop)
	if n.conn != nil {
		n.conn.Close()
	}
	n.mu.Unlock()
	<-n.done
}

func (n *Node) setLink(s LinkStatus) {
	n.mu.Lock()
	n.status.Link = s
	n.mu.Unlock()
}

func (n *Node) setErr(err error) {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	n.mu.Lock()
	n.status.LastErr = err
	n.mu.Unlock()
}

// run is the link loop: connect, sync, stream, reconnect with backoff.
func (n *Node) run() {
	defer close(n.done)
	backoff := n.opts.ReconnectMin
	for {
		select {
		case <-n.stop:
			n.setLink(LinkDown)
			return
		default:
		}
		err := n.connectAndStream()
		n.setErr(err)
		n.setLink(LinkDown)
		select {
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > n.opts.ReconnectMax {
			backoff = n.opts.ReconnectMax
		}
	}
}

// connectAndStream performs one full link lifetime: handshake, resync,
// stream until error or stop.
func (n *Node) connectAndStream() error {
	n.setLink(LinkConnecting)
	conn, err := n.opts.Dial(n.addr)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		conn.Close()
		return net.ErrClosed
	}
	n.conn = conn
	n.connects++
	if n.connects > 1 {
		n.status.Reconnects++
	}
	replid, offset := n.status.ReplID, n.status.Offset
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.conn = nil
		n.mu.Unlock()
		conn.Close()
	}()

	cr := &countingReader{r: conn}
	r := resp.NewReader(cr)
	w := resp.NewWriter(conn)
	do := func(args ...string) (resp.Value, error) {
		if err := w.WriteCommand(args...); err != nil {
			return resp.Value{}, err
		}
		if err := w.Flush(); err != nil {
			return resp.Value{}, err
		}
		v, err := r.ReadValue()
		if err != nil {
			return resp.Value{}, err
		}
		if v.IsError() {
			return v, fmt.Errorf("replica: primary: %s", v.Text())
		}
		return v, nil
	}

	// Handshake: liveness, actor auth, capabilities.
	if _, err := do("PING"); err != nil {
		return err
	}
	if n.opts.Actor != "" {
		if _, err := do("AUTH", n.opts.Actor); err != nil {
			return err
		}
	}
	if _, err := do("REPLCONF", "CAPA", "psync2"); err != nil {
		return err
	}

	// PSYNC: ask to continue from where we left off; "?" -1 on first sync.
	if replid == "" {
		replid, offset = "?", -1
	}
	if err := w.WriteCommand("PSYNC", replid, strconv.FormatInt(offset, 10)); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	v, err := r.ReadValue()
	if err != nil {
		return err
	}
	switch {
	case v.IsError():
		return fmt.Errorf("replica: PSYNC refused: %s", v.Text())
	case v.Type == resp.SimpleString && strings.HasPrefix(v.Text(), "FULLRESYNC"):
		fields := strings.Fields(v.Text())
		if len(fields) != 3 {
			return fmt.Errorf("replica: malformed FULLRESYNC %q", v.Text())
		}
		startOff, perr := strconv.ParseInt(fields[2], 10, 64)
		if perr != nil {
			return fmt.Errorf("replica: malformed FULLRESYNC offset %q", fields[2])
		}
		n.setLink(LinkSyncing)
		payload, err := r.ReadValue()
		if err != nil {
			return err
		}
		if payload.Type != resp.BulkString || payload.Null {
			return errors.New("replica: full sync payload is not a bulk string")
		}
		if err := n.applySnapshot(payload.Str); err != nil {
			return err
		}
		n.mu.Lock()
		n.status.ReplID = fields[1]
		n.status.Offset = startOff
		n.status.FullSyncs++
		n.mu.Unlock()
		// The snapshot is applied: acknowledge its offset, which the
		// primary holds unacknowledged until now.
		if err := w.WriteCommand("REPLCONF", "ACK", strconv.FormatInt(startOff, 10)); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	case v.Type == resp.SimpleString && v.Text() == "CONTINUE":
		// Partial resync: state is already consistent through our offset;
		// the stream resumes right after it.
	default:
		return fmt.Errorf("replica: unexpected PSYNC reply %q", v.Text())
	}

	n.setLink(LinkUp)
	// Offset accounting: the primary's offsets are byte positions in the
	// encoded stream, and from here on every byte the parser consumes IS
	// stream (handshake and snapshot are behind us), so the replica's
	// offset is its PSYNC base plus bytes consumed — no re-encoding needed.
	n.mu.Lock()
	base := n.status.Offset
	n.mu.Unlock()
	consumed0 := cr.n - int64(r.Buffered())
	return n.streamLoop(r, w, cr, base-consumed0)
}

// countingReader counts bytes handed to the parser's buffer; together with
// resp.Reader.Buffered it yields the exact byte position of each record
// boundary in the stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	m, err := c.r.Read(p)
	c.n += int64(m)
	return m, err
}

// applySnapshot replays a full-sync payload: concatenated records in the
// AOF/wire format.
func (n *Node) applySnapshot(payload []byte) error {
	r := resp.NewReader(bytes.NewReader(payload))
	for {
		args, err := r.ReadCommand()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("replica: snapshot decode: %w", err)
		}
		if err := n.applier.ApplyReplicated(string(args[0]), args[1:]); err != nil {
			return fmt.Errorf("replica: snapshot apply %s: %w", string(args[0]), err)
		}
		n.mu.Lock()
		n.status.Applied++
		n.mu.Unlock()
	}
}

// streamLoop tails the live record stream, applying and acknowledging.
// base is the stream offset corresponding to zero consumed bytes, so a
// record boundary's offset is base + bytes the parser has consumed. ACKs
// are sent whenever the read buffer drains, so a pipelined burst is
// acknowledged once, at its end.
func (n *Node) streamLoop(r *resp.Reader, w *resp.Writer, cr *countingReader, base int64) error {
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return err
		}
		name := string(args[0])
		if aerr := n.applier.ApplyReplicated(name, args[1:]); aerr != nil {
			// A record that did not apply is never acknowledged, so an ack
			// offset always means "applied here". The link drops, and
			// forgetting the replication ID makes the reconnect a full
			// resync from a snapshot cut after the record, not a replay
			// of the same record from the backlog.
			n.mu.Lock()
			n.status.ReplID = ""
			n.mu.Unlock()
			return fmt.Errorf("replica: apply %s: %w", name, aerr)
		}
		off := base + cr.n - int64(r.Buffered())
		n.mu.Lock()
		n.status.Offset = off
		n.status.Applied++
		n.mu.Unlock()
		if r.Buffered() == 0 {
			if err := w.WriteCommand("REPLCONF", "ACK", strconv.FormatInt(off, 10)); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}
