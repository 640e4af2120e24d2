package gdprkv_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"gdprstore/pkg/gdprkv"
)

var (
	cannedPONG = []byte("+PONG\r\n")
	cannedOK   = []byte("+OK\r\n")
	cannedVal  = []byte("$5\r\nvalue\r\n")
	cannedUser = cannedReport(256)
)

// cannedReport is a GETUSER reply of n records, each a 12-byte key and a
// 100-byte value.
func cannedReport(n int) []byte {
	b := fmt.Appendf(nil, "*%d\r\n", 2*n)
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "$12\r\npd:alice:%03d\r\n$100\r\n%s\r\n", i, strings.Repeat("v", 100))
	}
	return b
}

// cannedServer answers every command from fixed reply bytes — PING with
// +PONG, GGET with a 5-byte bulk value, GETUSER with cannedUser, anything
// else with +OK — and
// allocates nothing per command, so an AllocsPerRun over a client call
// counts the SDK's allocations alone.
func cannedServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveCanned(nc)
		}
	}()
	return ln.Addr().String()
}

func serveCanned(nc net.Conn) {
	defer nc.Close()
	r := bufio.NewReader(nc)
	for {
		argc, err := readHeader(r)
		if err != nil {
			return
		}
		var name [4]byte
		for i := 0; i < argc; i++ {
			n, err := readHeader(r)
			if err != nil {
				return
			}
			if i == 0 {
				b, err := r.Peek(min(n, len(name)))
				if err != nil {
					return
				}
				copy(name[:], b)
			}
			if _, err := r.Discard(n + 2); err != nil {
				return
			}
		}
		reply := cannedOK
		switch string(name[:]) {
		case "PING":
			reply = cannedPONG
		case "GGET":
			reply = cannedVal
		case "GETU":
			reply = cannedUser
		}
		if _, err := nc.Write(reply); err != nil {
			return
		}
	}
}

// readHeader reads one "*<n>\r\n" or "$<n>\r\n" line and returns n.
func readHeader(r *bufio.Reader) (int, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	n := 0
	for _, c := range line[1:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// TestScalarCallAllocs is the allocation budget of the SDK's scalar hot
// path: one GGet and one GPut round trip on a standalone pool-1 client,
// the shape the wire-read benchmark drives. Measured 2 and 9: the key's
// []byte and the reply's bulk string for GGet; for GPut the key plus the
// rendered OWNER/TTL option tokens. Beside them, GetUser of a 256-record
// report, the shape of the rights-under-write reads: a fixed count whatever
// the record count, where one allocation per bulk string and per map key
// cost 776.
func TestScalarCallAllocs(t *testing.T) {
	c := dial(t, cannedServer(t), gdprkv.WithPoolSize(1))
	opts := gdprkv.PutOptions{Owner: "alice", TTL: time.Hour}
	val := []byte("value")
	for _, tc := range []struct {
		name   string
		budget float64
		call   func() error
	}{
		{"GGet", 2, func() error { _, err := c.GGet(ctxb(), "pd:alice:1"); return err }},
		{"GPut", 9, func() error { return c.GPut(ctxb(), "pd:alice:1", val, opts) }},
		{"GetUser", 11, func() error {
			recs, err := c.GetUser(ctxb(), "alice")
			if err == nil && len(recs) != 256 {
				err = fmt.Errorf("GetUser = %d records, want 256", len(recs))
			}
			return err
		}},
	} {
		n := testing.AllocsPerRun(1000, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s allocates %.1f times per call", tc.name, n)
		if n > tc.budget {
			t.Errorf("%s allocates %.1f times per call, budget %.0f", tc.name, n, tc.budget)
		}
	}
}
