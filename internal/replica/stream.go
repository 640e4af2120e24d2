// Package replica is the replication the paper's Article 17 analysis
// demands: "the requested data be erased in a timely manner including all
// its replicas and backups". A primary streams its journal, data records and
// compliance control records alike, to replicas that apply each one exactly
// as AOF replay would, so an erasure reaches every copy.
//
// This file is the primary side. The Hub is a store.Journal sink fed from
// the engine's group-commit queue (and from the compliance layer's control
// records): every journal record is RESP-encoded once, appended to a bounded
// backlog, and fanned out to the connected replica links. Replicas attach
// with the REPLCONF/PSYNC handshake through the main RESP server, whose
// PSYNC command hands the connection to Hub.Serve. node.go is the replica
// side.
//
// Offsets are byte offsets into the encoded record stream, exactly Redis's
// master_repl_offset model: a replica that reconnects presents its offset,
// and if the backlog still covers it the primary replays just the missing
// tail (+CONTINUE); otherwise it falls back to a full resync (+FULLRESYNC)
// built from a globally consistent snapshot.
package replica

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gdprstore/internal/resp"
)

// DefaultBacklogSize bounds the partial-resync backlog (1 MiB). A replica
// whose disconnection outlasts this window of write traffic full-resyncs.
const DefaultBacklogSize = 1 << 20

// DefaultLinkQueue is the per-link outgoing frame queue. A replica that
// falls further behind than this many records is disconnected (it will
// reconnect and partial-resync from the backlog) rather than allowed to
// block the primary's data path.
const DefaultLinkQueue = 4096

// EncodeRecord renders one journal record in the wire/AOF format: a RESP
// array of bulk strings, name first. Primary and replica use the same
// encoder, which is what makes byte offsets agree on both ends.
func EncodeRecord(name string, args ...[]byte) []byte {
	var buf bytes.Buffer
	w := resp.NewWriter(&buf)
	_ = w.WriteRecord(name, args)
	_ = w.Flush()
	return buf.Bytes()
}

// SnapshotProvider produces a full-state record sequence for a full resync.
// Implementations must call cut() at the instant the snapshot's consistent
// point is reached (typically while the store is quiesced): the hub
// registers the new link there, so the live stream carries exactly the
// records after the cut. core.Store.StreamSnapshot is the canonical
// implementation.
type SnapshotProvider func(emit func(name string, args ...[]byte) error, cut func()) error

// LinkStat is one replica link's observable state (INFO replication).
type LinkStat struct {
	// Addr is the remote address of the link.
	Addr string
	// StartOffset is the stream offset the link was registered at.
	StartOffset int64
	// AckOffset is the last offset the replica acknowledged: -1 until a
	// full-sync replica has applied its snapshot.
	AckOffset int64
}

// Hub is the primary-side replication fan-out. It implements store.Journal.
type Hub struct {
	id        string
	queueSize int

	mu          sync.Mutex
	offset      int64
	backlog     []byte
	backlogBase int64
	backlogCap  int
	links       map[*link]struct{}
	closed      bool
}

// NewHub creates a replication hub with a fresh replication ID, a
// DefaultBacklogSize backlog and DefaultLinkQueue frames per link.
func NewHub() *Hub { return newHub(DefaultBacklogSize, DefaultLinkQueue) }

// newHub is NewHub with the backlog's bytes and each link's frames given.
func newHub(backlog, queue int) *Hub {
	var idb [20]byte
	if _, err := rand.Read(idb[:]); err != nil {
		// A zero ID only weakens partial-resync matching, never safety.
		copy(idb[:], "gdprstore-fallback-id")
	}
	return &Hub{
		id:         hex.EncodeToString(idb[:]),
		queueSize:  queue,
		backlogCap: backlog,
		links:      make(map[*link]struct{}),
	}
}

// ID returns the replication ID replicas match against for partial resync.
func (h *Hub) ID() string { return h.id }

// Offset returns the master replication offset: total encoded stream bytes.
func (h *Hub) Offset() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.offset
}

// Links returns a snapshot of the connected replica links.
func (h *Hub) Links() []LinkStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]LinkStat, 0, len(h.links))
	for l := range h.links {
		out = append(out, LinkStat{
			Addr:        l.addr,
			StartOffset: l.startOffset,
			AckOffset:   l.ack.Load(),
		})
	}
	return out
}

// AppendOp implements store.Journal: encode once, append to the backlog,
// fan out to every live link. A link whose queue is full is killed (it
// reconnects and partial-resyncs) so a slow replica can never block the
// primary's data path.
func (h *Hub) AppendOp(name string, args ...[]byte) error {
	frame := EncodeRecord(name, args...)
	var dead []*link
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.offset += int64(len(frame))
	h.appendBacklogLocked(frame)
	for l := range h.links {
		select {
		case l.ch <- frame:
		default:
			// Overflow: remove now (under the lock) so no later frame can
			// be queued out of order, then shut the link down.
			delete(h.links, l)
			dead = append(dead, l)
		}
	}
	h.mu.Unlock()
	for _, l := range dead {
		l.shutdown()
	}
	return nil
}

// appendBacklogLocked appends frame to the backlog, trimming the front to
// stay within backlogCap. The base may land mid-record: replicas only ever
// request record-aligned offsets >= base, so alignment is preserved for
// every servable request.
func (h *Hub) appendBacklogLocked(frame []byte) {
	h.backlog = append(h.backlog, frame...)
	if over := len(h.backlog) - h.backlogCap; over > 0 {
		h.backlog = h.backlog[over:]
		h.backlogBase += int64(over)
	}
}

// tryPartialLocked registers l and returns the backlog tail from offset if
// a partial resync is possible.
func (h *Hub) tryPartialLocked(l *link, replid string, offset int64) ([]byte, bool) {
	if replid != h.id || offset < h.backlogBase || offset > h.offset {
		return nil, false
	}
	tail := make([]byte, h.offset-offset)
	copy(tail, h.backlog[offset-h.backlogBase:])
	h.links[l] = struct{}{}
	l.startOffset = offset
	l.ack.Store(offset)
	return tail, true
}

// register adds l to the fan-out at the current offset and returns that
// offset. Called from the snapshot cut point, while the store is quiesced.
// The link acknowledges nothing until the replica has applied the snapshot
// and sent its first ACK: an ack offset always means "applied there".
func (h *Hub) register(l *link) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.links[l] = struct{}{}
	l.startOffset = h.offset
	l.ack.Store(-1)
	return h.offset
}

func (h *Hub) unregister(l *link) {
	h.mu.Lock()
	delete(h.links, l)
	h.mu.Unlock()
}

// DisconnectReplicas drops every connected link (they reconnect and resync
// from the backlog). Operationally useful for forcing a resync; tests use
// it to exercise the reconnect path deterministically.
func (h *Hub) DisconnectReplicas() {
	h.mu.Lock()
	links := make([]*link, 0, len(h.links))
	for l := range h.links {
		links = append(links, l)
		delete(h.links, l)
	}
	h.mu.Unlock()
	for _, l := range links {
		l.shutdown()
	}
}

// Close shuts down every link. The hub stops accepting records (AppendOp
// becomes a no-op) so a store draining its journal during shutdown cannot
// block.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	links := make([]*link, 0, len(h.links))
	for l := range h.links {
		links = append(links, l)
		delete(h.links, l)
	}
	h.mu.Unlock()
	for _, l := range links {
		l.shutdown()
	}
}

// link is one connected replica's outgoing stream.
type link struct {
	conn        net.Conn
	addr        string
	ch          chan []byte
	closed      chan struct{}
	closeOnce   sync.Once
	startOffset int64
	ack         atomic.Int64
}

func newLink(conn net.Conn, queue int) *link {
	return &link{
		conn:   conn,
		addr:   conn.RemoteAddr().String(),
		ch:     make(chan []byte, queue),
		closed: make(chan struct{}),
	}
}

// shutdown closes the connection and wakes the writer loop. Safe to call
// multiple times and from any goroutine.
func (l *link) shutdown() {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.conn.Close()
	})
}

// Serve handles one replication link after the PSYNC command has been
// parsed: it performs the full or partial resync preamble, registers the
// link, then streams records until the link dies or the hub closes. It
// blocks for the life of the link and owns conn's I/O. replid/offset are
// PSYNC's arguments ("?" / -1 request a full resync).
func (h *Hub) Serve(conn net.Conn, replid string, offset int64, snap SnapshotProvider) error {
	l := newLink(conn, h.queueSize)
	defer h.unregister(l)
	defer l.shutdown()

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return errors.New("replica: hub closed")
	}
	tail, partial := h.tryPartialLocked(l, replid, offset)
	h.mu.Unlock()

	w := resp.NewWriter(conn)
	if partial {
		if err := w.WriteValue(resp.SimpleStringValue("CONTINUE")); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if len(tail) > 0 {
			if _, err := conn.Write(tail); err != nil {
				return err
			}
		}
	} else {
		// Full resync: build the snapshot payload; the provider calls cut()
		// at the consistent point, where we register the link and learn the
		// stream offset the snapshot corresponds to.
		var payload bytes.Buffer
		var startOff int64
		emit := func(name string, args ...[]byte) error {
			payload.Write(EncodeRecord(name, args...))
			return nil
		}
		if err := snap(emit, func() { startOff = h.register(l) }); err != nil {
			return fmt.Errorf("replica: full sync snapshot: %w", err)
		}
		if err := w.WriteValue(resp.SimpleStringValue(
			fmt.Sprintf("FULLRESYNC %s %d", h.id, startOff))); err != nil {
			return err
		}
		if err := w.WriteValue(resp.BulkValue(payload.Bytes())); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	// ACK reader: the replica sends REPLCONF ACK <offset> on the same
	// connection; a read error means the link is gone.
	go func() {
		r := resp.NewReader(conn)
		for {
			args, err := r.ReadCommand()
			if err != nil {
				l.shutdown()
				return
			}
			if len(args) == 3 && strings.EqualFold(string(args[0]), "REPLCONF") &&
				strings.EqualFold(string(args[1]), "ACK") {
				if n, err := strconv.ParseInt(string(args[2]), 10, 64); err == nil {
					l.ack.Store(n)
				}
			}
		}
	}()

	for {
		select {
		case frame := <-l.ch:
			if _, err := conn.Write(frame); err != nil {
				return err
			}
		case <-l.closed:
			return nil
		}
	}
}

// ParsePSYNCArgs parses PSYNC's <replid> <offset> argument pair. "?" and
// -1 request a full resync.
func ParsePSYNCArgs(args [][]byte) (replid string, offset int64, err error) {
	if len(args) != 2 {
		return "", 0, errors.New("PSYNC needs <replid> <offset>")
	}
	replid = string(args[0])
	offset, perr := strconv.ParseInt(string(args[1]), 10, 64)
	if perr != nil {
		return "", 0, errors.New("PSYNC offset must be an integer")
	}
	return replid, offset, nil
}
