package gdprkv_test

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
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
// report, the shape of the rights-under-write reads, which decodes the
// reply straight into its map: a fixed count whatever the record count
// (11, where one allocation per bulk string and per map key cost 776), and
// 54 433 B for its 28 672 B of keys and values: the map, one buffer for the
// values, one for the keys' string and one for their lengths. Decoded
// through a resp.Value tree, it allocated 11 times and 98 713 B.
func TestScalarCallAllocs(t *testing.T) {
	c := dial(t, cannedServer(t), gdprkv.WithPoolSize(1))
	opts := gdprkv.PutOptions{Owner: "alice", TTL: time.Hour}
	val := []byte("value")
	for _, tc := range []struct {
		name   string
		budget float64
		bytes  float64 // 0: no bound
		call   func() error
	}{
		{"GGet", 2, 0, func() error { _, err := c.GGet(ctxb(), "pd:alice:1"); return err }},
		{"GPut", 9, 0, func() error { return c.GPut(ctxb(), "pd:alice:1", val, opts) }},
		{"GetUser", 11, 60 << 10, func() error {
			recs, err := c.GetUser(ctxb(), "alice")
			if err == nil && len(recs) != 256 {
				err = fmt.Errorf("GetUser = %d records, want 256", len(recs))
			}
			return err
		}},
	} {
		call := func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}
		n, size := testing.AllocsPerRun(1000, call), bytesPerRun(1000, call)
		t.Logf("%s allocates %.1f times and %.0f B per call", tc.name, n, size)
		if n > tc.budget {
			t.Errorf("%s allocates %.1f times per call, budget %.0f", tc.name, n, tc.budget)
		}
		if tc.bytes > 0 && size > tc.bytes {
			t.Errorf("%s allocates %.0f B per call, budget %.0f", tc.name, size, tc.bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for the bytes allocated: the mean over
// runs calls of f, after one call to warm up, with GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
