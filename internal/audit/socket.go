package audit

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// Socket sink tuning. Dial and write bound how long the drainer can stall on
// a dead collector; the backoff caps how hard a flapping collector is
// re-dialled.
const (
	socketDialTimeout  = 2 * time.Second
	socketWriteTimeout = 5 * time.Second
	socketBackoffMin   = 100 * time.Millisecond
	socketBackoffMax   = 30 * time.Second
)

// SocketSink exports the trail as line-delimited JSON over a stream
// socket (a SIEM / log-collector feed). It is deliberately best-effort:
// a write failure closes the connection, the next write re-dials behind
// exponential backoff, and lines offered while disconnected are counted
// (Dropped) and reported as errors for the pipeline's sink-error counter
// — the durable FileSink, not the export feed, is the compliance record.
//
// Records reaching a SocketSink are already masked (when a mask key is
// configured), so the external collector never sees raw PII.
type SocketSink struct {
	network string
	addr    string

	mu       sync.Mutex
	conn     net.Conn
	buf      []byte // one batch as JSON lines, reused
	nextDial time.Time
	backoff  time.Duration
	dropped  uint64
	closed   bool
}

// NewSocketSink parses spec — "tcp://host:port" or "unix:///path" — and
// returns a sink that connects lazily on first write.
func NewSocketSink(spec string) (*SocketSink, error) {
	var network, addr string
	switch {
	case strings.HasPrefix(spec, "tcp://"):
		network, addr = "tcp", strings.TrimPrefix(spec, "tcp://")
	case strings.HasPrefix(spec, "unix://"):
		network, addr = "unix", strings.TrimPrefix(spec, "unix://")
	default:
		return nil, fmt.Errorf("audit: socket sink spec %q: want tcp://host:port or unix:///path", spec)
	}
	if addr == "" {
		return nil, fmt.Errorf("audit: socket sink spec %q: empty address", spec)
	}
	return &SocketSink{network: network, addr: addr, backoff: socketBackoffMin}, nil
}

// Write sends one batch as JSON lines in one write: the collector was
// promised JSONL, whatever the trail file holds. Disconnected with backoff
// pending, the lines are dropped and an error returned (counted, never
// blocking the pipeline beyond the dial/write timeouts).
func (s *SocketSink) Write(recs []Record, _ []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("audit: socket sink closed")
	}
	lines := uint64(len(recs))
	if s.conn == nil {
		if time.Now().Before(s.nextDial) {
			s.dropped += lines
			return fmt.Errorf("audit: socket sink %s://%s disconnected (backoff)", s.network, s.addr)
		}
		conn, err := net.DialTimeout(s.network, s.addr, socketDialTimeout)
		if err != nil {
			s.dropped += lines
			s.deferRedialLocked()
			return fmt.Errorf("audit: socket sink dial: %w", err)
		}
		s.conn = conn
		s.backoff = socketBackoffMin
	}
	_ = s.conn.SetWriteDeadline(time.Now().Add(socketWriteTimeout))
	s.buf = s.buf[:0]
	for _, r := range recs {
		s.buf = append(r.AppendJSON(s.buf), '\n')
	}
	if _, err := s.conn.Write(s.buf); err != nil {
		s.conn.Close()
		s.conn = nil
		s.dropped += lines
		s.deferRedialLocked()
		return fmt.Errorf("audit: socket sink write: %w", err)
	}
	return nil
}

// deferRedialLocked schedules the next dial attempt with exponential
// backoff.
func (s *SocketSink) deferRedialLocked() {
	s.nextDial = time.Now().Add(s.backoff)
	s.backoff *= 2
	if s.backoff > socketBackoffMax {
		s.backoff = socketBackoffMax
	}
}

// Sync is a no-op: the line protocol has no flush beyond the write.
func (s *SocketSink) Sync() error { return nil }

// Close closes the connection.
func (s *SocketSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.conn = nil
	return err
}

// Dropped returns how many lines were lost to disconnection.
func (s *SocketSink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
