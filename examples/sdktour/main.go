// Sdktour walks the public pkg/gdprkv SDK surface end to end against an
// in-process server: options-struct construction with an auto AUTH/
// PURPOSE handshake, per-call context deadlines (a dead server can never
// hang a caller), the typed error taxonomy under errors.Is (a raw GET's
// refusal included), concurrent
// use of one pooled client, explicit pipelining, implicit micro-batching,
// and the generic Do escape hatch. Run with:
//
//	go run ./examples/sdktour
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
	"gdprstore/pkg/gdprkv"
)

func main() {
	// A strict store: full + real-time compliance, enforcing ACLs.
	st, err := core.Open(core.Strict(""))
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "backend", Role: acl.RoleController})
	st.ACL().AddPrincipal(acl.Principal{ID: "alice", Role: acl.RoleSubject})

	srv, err := server.Listen("127.0.0.1:0", st)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()

	// 1. Construction: functional options, handshake on every pooled conn.
	c, err := gdprkv.Dial(ctx, srv.Addr(),
		gdprkv.WithActor("backend"),
		gdprkv.WithPurpose("order-fulfilment"),
		gdprkv.WithPoolSize(8),
		gdprkv.WithDialTimeout(2*time.Second),
		gdprkv.WithIOTimeout(5*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Println("1. dialed: pool of 8, authenticated as backend/order-fulfilment")

	// 2. Writes carry GDPR metadata; reads state their purpose implicitly.
	err = c.GPut(ctx, "user:alice:address", []byte("1 Rue de Rivoli"), gdprkv.PutOptions{
		Owner:      "alice",
		Purposes:   []string{"order-fulfilment", "billing"},
		Origin:     "checkout-form",
		SharedWith: []string{"parcel-carrier"},
		TTL:        90 * 24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	v, err := c.GGet(ctx, "user:alice:address")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. round trip: %s\n", v)

	// 3. Typed errors: every rejection class is an errors.Is sentinel.
	marketing, err := gdprkv.Dial(ctx, srv.Addr(),
		gdprkv.WithActor("backend"), gdprkv.WithPurpose("marketing"))
	if err != nil {
		log.Fatal(err)
	}
	defer marketing.Close()
	_, err = marketing.GGet(ctx, "user:alice:address")
	fmt.Printf("3. off-purpose read: ErrBadPurpose=%v (%v)\n", errors.Is(err, gdprkv.ErrBadPurpose), err)
	_, err = c.GGet(ctx, "user:nobody:email")
	fmt.Printf("   missing key:      ErrNotFound=%v\n", errors.Is(err, gdprkv.ErrNotFound))
	// A compliant server serves no raw engine command, even to a controller.
	_, err = c.Get(ctx, "user:alice:address")
	fmt.Printf("   raw GET:          ErrDenied=%v\n", errors.Is(err, gdprkv.ErrDenied))

	// 4. Deadlines: a black-hole server (accepts, never replies) cannot
	// hang a caller — the context deadline bounds the call.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	shortCtx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = gdprkv.Dial(shortCtx, ln.Addr().String())
	fmt.Printf("4. dead server: returned in %v, DeadlineExceeded=%v\n",
		time.Since(t0).Round(time.Millisecond), errors.Is(err, context.DeadlineExceeded))

	// 5. One client, many goroutines: the pool serialises each call on
	// its own connection, so replies never interleave.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("user:alice:g%d", g)
				if err := c.GPut(ctx, key, []byte(fmt.Sprintf("v%d", i)), gdprkv.PutOptions{
					Owner: "alice", Purposes: []string{"order-fulfilment"}, TTL: time.Hour,
				}); err != nil {
					log.Fatal(err)
				}
				if _, err := c.GGet(ctx, key); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	fmt.Println("5. 8 goroutines x 50 calls on one client: no interleaving, race-clean")

	// 6. The Do escape hatch reaches any registered command.
	reply, err := c.Do(ctx, "COMMAND", "COUNT")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("6. Do(COMMAND COUNT): server registers %d commands\n", reply.Int)

	// 7. Explicit pipelining: queue N commands, pay ~1 round trip. Results
	// are positional, and an error reply mid-pipeline occupies only its
	// own slot — later replies stay aligned.
	p := c.Pipeline()
	p.GPut("user:alice:phone", []byte("+33 1 23 45 67 89"), gdprkv.PutOptions{
		Owner: "alice", Purposes: []string{"order-fulfilment"}, TTL: time.Hour,
	})
	p.GGet("user:alice:phone")
	p.GGet("user:nobody:email") // errors in-slot, does not desync
	p.GGet("user:alice:address")
	res, err := p.Exec(ctx)
	if err != nil {
		log.Fatal(err) // transport failure only; per-op errors are in the slots
	}
	phone, _ := res[1].Bytes()
	fmt.Printf("7. pipeline of %d: phone=%s, slot2 ErrNotFound=%v, slot3 ok=%v\n",
		len(res), phone, errors.Is(res[2].Err, gdprkv.ErrNotFound), res[3].Err == nil)

	// 8. Implicit micro-batching: a coalescing client turns concurrent
	// scalar calls into MGET/GMPUT batches — same API, fewer round trips.
	ab, err := gdprkv.Dial(ctx, srv.Addr(),
		gdprkv.WithActor("backend"),
		gdprkv.WithPurpose("order-fulfilment"),
		gdprkv.WithAutoBatch(gdprkv.DefaultAutoBatchWindow, gdprkv.DefaultAutoBatchMaxOps),
	)
	if err != nil {
		log.Fatal(err)
	}
	var awg sync.WaitGroup
	for g := 0; g < 8; g++ {
		awg.Add(1)
		go func(g int) {
			defer awg.Done()
			if _, err := ab.GGet(ctx, fmt.Sprintf("user:alice:g%d", g)); err != nil {
				log.Fatal(err)
			}
		}(g)
	}
	awg.Wait()
	abStats := ab.Stats()
	ab.Close() // flushes any writes still waiting in a window
	fmt.Printf("8. auto-batch: 8 concurrent GGets rode %d coalesced flush(es)\n",
		abStats.AutoBatchFlushes)

	// 9. Rights operations route to the primary and erase everything.
	n, err := c.ForgetUser(ctx, "alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("9. ForgetUser(alice): %d records erased; pool stats: %+v\n", n, c.Stats())
}
