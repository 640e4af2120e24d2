// Example opstour walks the HTTP ops surface end to end: it starts a
// compliant store with envelope encryption and retention machinery, mounts
// the ops server beside the RESP listener, then manufactures a small
// retention storm and an erasure so the compliance-lag gauges actually
// move. While the backlog drains it polls /metrics and /info the way a
// scrape loop or the embedded dashboard would, printing the
// gdprkv_retention_lag_seconds decay curve — the live view of the
// "timely deletion" obligation the paper argues storage systems must
// surface.
//
// Run with:
//
//	go run ./examples/opstour
//
// While it runs (it lingers ~10s), the dashboard is live at the printed
// ops URL.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/ops"
	"gdprstore/internal/server"
)

const expiringKeys = 60000

func main() {
	cfg := core.EventualFull("")
	cfg.Envelope = true
	cfg.MasterKey = bytes.Repeat([]byte{7}, 32)
	st, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "controller", Role: acl.RoleController})
	st.ACL().AddPrincipal(acl.Principal{ID: "alice", Role: acl.RoleSubject})
	st.ACL().AddPrincipal(acl.Principal{ID: "bob", Role: acl.RoleSubject})

	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	o, err := ops.Listen("127.0.0.1:0", srv)
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()
	base := "http://" + o.Addr()
	fmt.Printf("RESP on %s, ops surface on %s\n\n", srv.Addr(), base)

	// Seed a storm: thousands of bob-owned records sharing one expiry
	// deadline a moment from now, plus a separate subject (alice) whose
	// data we erase to move the erasure gauges too.
	ctl := core.Ctx{Actor: "controller", Purpose: "demo"}
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; i < expiringKeys; i++ {
		key := fmt.Sprintf("session:%05d", i)
		err := st.Put(ctl, key, []byte("ephemeral"), core.PutOptions{
			Owner: "bob", Purposes: []string{"demo"}, ExpireAt: deadline,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("profile:alice:%03d", i)
		err := st.Put(ctl, key, []byte("personal"), core.PutOptions{
			Owner: "alice", Purposes: []string{"demo"}, TTL: time.Hour,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if _, err := st.Forget(core.Ctx{Actor: "alice"}, "alice"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded %d records expiring at once and crypto-shredded alice's 100\n\n", expiringKeys)
	st.StartExpirer()
	defer st.StopExpirer()

	// Scrape loop: wait for the shared deadline, then watch the
	// retention-lag gauge spike and drain. This is exactly what a
	// Prometheus scrape sees.
	time.Sleep(time.Until(deadline))
	fmt.Println("scraping /metrics until the retention backlog drains:")
	fmt.Printf("  %-10s %22s %22s\n", "t", "retention_lag_seconds", "overdue_records")
	start := time.Now()
	for {
		m := scrape(base + "/metrics")
		fmt.Printf("  %-10v %22s %22s\n", time.Since(start).Round(10*time.Millisecond),
			m["gdprkv_retention_lag_seconds"], m["gdprkv_retention_overdue_records"])
		if m["gdprkv_retention_overdue_records"] == "0" || time.Since(start) > 15*time.Second {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The same facts, as the JSON the dashboard and experiments -ops-addr
	// consume.
	fmt.Println("\n/info/erasure after the shred:")
	resp, err := http.Get(base + "/info/erasure")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println(strings.TrimRight(string(body), "\n"))

	fmt.Printf("\ndashboard live at %s for the next 10s\n", base)
	time.Sleep(10 * time.Second)
}

// scrape fetches a Prometheus exposition and returns label-less samples.
func scrape(url string) map[string]string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok && !strings.Contains(name, "{") {
			out[name] = val
		}
	}
	return out
}
