package experiments

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"gdprstore/internal/tlsproxy"
)

// TLSBandwidthRow reports bulk-transfer bandwidth over one path.
type TLSBandwidthRow struct {
	// Path names the topology measured.
	Path string
	// BytesPerSec is the measured streaming bandwidth.
	BytesPerSec float64
}

// TLSBandwidth reproduces the §4.2 observation that interposing the TLS
// proxy pair collapsed the available bandwidth (44 Gbps → 4.9 Gbps on the
// authors' testbed, a ~9× reduction). It streams totalBytes through (a)
// a direct TCP connection and (b) the stunnel-style tunnel, on loopback,
// and reports both bandwidths. Absolute numbers depend on the host; the
// paper's shape is the large relative drop.
func TLSBandwidth(totalBytes int64) ([]TLSBandwidthRow, error) {
	if totalBytes <= 0 {
		totalBytes = 64 << 20 // 64 MiB
	}

	// The sink discards everything it receives. Closing it stops the
	// accept loop; each connection's copy ends when its sender closes.
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer sink.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(io.Discard, c)
			}()
		}
	}()

	direct, err := measureStream(sink.Addr().String(), totalBytes)
	if err != nil {
		return nil, fmt.Errorf("direct: %w", err)
	}

	tun, err := tlsproxy.NewTunnel(sink.Addr().String(), tlsproxy.Throttle{})
	if err != nil {
		return nil, err
	}
	defer tun.Close()
	tunneled, err := measureStream(tun.Addr(), totalBytes)
	if err != nil {
		return nil, fmt.Errorf("tunneled: %w", err)
	}

	return []TLSBandwidthRow{
		{Path: "direct TCP", BytesPerSec: direct},
		{Path: "TLS tunnel (stunnel stand-in)", BytesPerSec: tunneled},
	}, nil
}

func measureStream(addr string, total int64) (float64, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, 256*1024)
	var sent int64
	start := time.Now()
	for sent < total {
		n := int64(len(buf))
		if total-sent < n {
			n = total - sent
		}
		wn, err := c.Write(buf[:n])
		sent += int64(wn)
		if err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, errors.New("transfer too fast to measure")
	}
	return float64(sent) / elapsed, nil
}

// FormatTLSBandwidth renders the bandwidth comparison.
func FormatTLSBandwidth(rows []TLSBandwidthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %16s\n", "Path", "Bandwidth")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %11.1f MB/s\n", r.Path, r.BytesPerSec/1e6)
	}
	if len(rows) == 2 && rows[1].BytesPerSec > 0 {
		fmt.Fprintf(&b, "reduction: %.1fx (paper: 44 Gbps -> 4.9 Gbps, ~9x)\n",
			rows[0].BytesPerSec/rows[1].BytesPerSec)
	}
	return b.String()
}
