package gdprkv_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"gdprstore/internal/acl"
	"gdprstore/internal/core"
	"gdprstore/internal/server"
	"gdprstore/pkg/gdprkv"
)

// Example shows the SDK's lifecycle end to end: dial with options, write
// personal data with metadata, read it back, and exercise the right to
// be forgotten. The in-process server stands in for a deployment.
func Example() {
	st, _ := core.Open(core.Config{Compliant: true, Capability: core.CapabilityFull, AuditEnabled: true})
	defer st.Close()
	st.ACL().AddPrincipal(acl.Principal{ID: "shop", Role: acl.RoleController})
	srv, _ := server.Listen("127.0.0.1:0", st)
	defer srv.Close()

	ctx := context.Background()
	c, err := gdprkv.Dial(ctx, srv.Addr(),
		gdprkv.WithActor("shop"),
		gdprkv.WithPurpose("order-fulfilment"),
		gdprkv.WithPoolSize(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	err = c.GPut(ctx, "user:alice:address", []byte("1 Rue de Rivoli"), gdprkv.PutOptions{
		Owner:    "alice",
		Purposes: []string{"order-fulfilment"},
		TTL:      90 * 24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}

	v, _ := c.GGet(ctx, "user:alice:address")
	fmt.Printf("read: %s\n", v)

	n, _ := c.ForgetUser(ctx, "alice")
	fmt.Printf("forgotten: %d record(s)\n", n)

	// Output:
	// read: 1 Rue de Rivoli
	// forgotten: 1 record(s)
}

// ExampleClient_Get demonstrates the typed-sentinel error contract: a
// missing key is errors.Is(err, ErrNotFound), decoded from the wire by
// the same code table the server encodes with.
func ExampleClient_Get() {
	st, _ := core.Open(core.Baseline())
	defer st.Close()
	srv, _ := server.Listen("127.0.0.1:0", st)
	defer srv.Close()

	ctx := context.Background()
	c, err := gdprkv.Dial(ctx, srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	_, err = c.Get(ctx, "missing")
	fmt.Println(errors.Is(err, gdprkv.ErrNotFound))

	// Output:
	// true
}

// ExampleClient_GMGet reads a batch in one round trip; refused or
// missing keys are reported per slot without failing the batch.
func ExampleClient_GMGet() {
	st, _ := core.Open(core.Config{Compliant: true, Capability: core.CapabilityPartial, AuditEnabled: true})
	defer st.Close()
	srv, _ := server.Listen("127.0.0.1:0", st)
	defer srv.Close()

	ctx := context.Background()
	c, err := gdprkv.Dial(ctx, srv.Addr(), gdprkv.WithActor("importer"))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	_ = c.GMPut(ctx, []string{"k1", "k2"}, [][]byte{[]byte("v1"), []byte("v2")},
		gdprkv.PutOptions{Owner: "bob", Purposes: []string{"svc"}})

	batch, _ := c.GMGet(ctx, "k1", "k2", "missing")
	for i, r := range batch {
		if errors.Is(r.Err, gdprkv.ErrNotFound) {
			fmt.Printf("%d: not found\n", i)
			continue
		}
		fmt.Printf("%d: %s\n", i, r.Value)
	}

	// Output:
	// 0: v1
	// 1: v2
	// 2: not found
}

// ExampleClient_Pipeline queues commands client-side and submits them as
// one exchange: positional results, one round trip, and an error reply in
// the middle occupying only its own slot.
func ExampleClient_Pipeline() {
	st, _ := core.Open(core.Baseline())
	defer st.Close()
	srv, _ := server.Listen("127.0.0.1:0", st)
	defer srv.Close()

	ctx := context.Background()
	c, err := gdprkv.Dial(ctx, srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	p := c.Pipeline()
	p.Set("a", []byte("1")).Set("b", []byte("2")).Get("a").Get("missing").Get("b")
	res, err := p.Exec(ctx) // one flush, five ordered replies
	if err != nil {
		log.Fatal(err) // transport failure only; see the slots for the rest
	}
	for i, r := range res[2:] {
		if errors.Is(r.Err, gdprkv.ErrNotFound) {
			fmt.Printf("%d: not found\n", i)
			continue
		}
		v, _ := r.Bytes()
		fmt.Printf("%d: %s\n", i, v)
	}

	// Output:
	// 0: 1
	// 1: not found
	// 2: 2
}

// ExampleWithAutoBatch turns on implicit micro-batching: concurrent
// scalar calls coalesce into one batched command per flush window, with
// every caller keeping its own value and typed error.
func ExampleWithAutoBatch() {
	st, _ := core.Open(core.Baseline())
	defer st.Close()
	srv, _ := server.Listen("127.0.0.1:0", st)
	defer srv.Close()

	ctx := context.Background()
	c, err := gdprkv.Dial(ctx, srv.Addr(),
		gdprkv.WithAutoBatch(gdprkv.DefaultAutoBatchWindow, gdprkv.DefaultAutoBatchMaxOps))
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// These concurrent Sets ride one coalesced MSET.
			_ = c.Set(ctx, fmt.Sprintf("k%d", i), []byte{byte('0' + i)})
		}()
	}
	wg.Wait()
	c.Close() // pending coalesced writes are flushed before teardown

	verify, _ := gdprkv.Dial(ctx, srv.Addr())
	defer verify.Close()
	v, _ := verify.Get(ctx, "k2")
	fmt.Printf("k2 = %s\n", v)

	// Output:
	// k2 = 2
}

// ExampleWithRetry bounds how many times an idempotent read tries its
// owner after connection failures; server error replies are never
// retried, and neither are writes. On a healthy connection the first try
// answers.
func ExampleWithRetry() {
	st, _ := core.Open(core.Baseline())
	defer st.Close()
	srv, _ := server.Listen("127.0.0.1:0", st)
	defer srv.Close()

	c, err := gdprkv.Dial(context.Background(), srv.Addr(),
		gdprkv.WithRetry(2, 10*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	_ = c.Set(context.Background(), "k", []byte("v"))
	v, _ := c.Get(context.Background(), "k")
	fmt.Printf("%s (retries=%d)\n", v, c.Stats().Retries)

	// Output:
	// v (retries=0)
}
