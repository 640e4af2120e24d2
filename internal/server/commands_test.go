package server

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"gdprstore/internal/core"
	"gdprstore/pkg/gdprkv"
)

func TestSetSyntaxVariants(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	if _, err := c.Do("SET", "k", "v", "EX", "100"); err != nil {
		t.Fatal(err)
	}
	if ttl, _ := c.TTL("k"); ttl <= 0 {
		t.Fatalf("EX not applied: %d", ttl)
	}
	if _, err := c.Do("SET", "k", "v2", "KEEPTTL"); err != nil {
		t.Fatal(err)
	}
	if ttl, _ := c.TTL("k"); ttl <= 0 {
		t.Fatalf("KEEPTTL dropped ttl: %d", ttl)
	}
	if _, err := c.Do("SET", "k", "v3"); err != nil {
		t.Fatal(err)
	}
	if ttl, _ := c.TTL("k"); ttl != -1 {
		t.Fatalf("plain SET kept ttl: %d", ttl)
	}
	// Syntax errors.
	for _, bad := range [][]string{
		{"SET", "k", "v", "EX"},
		{"SET", "k", "v", "EX", "abc"},
		{"SET", "k", "v", "EX", "-5"},
		{"SET", "k", "v", "BOGUS"},
	} {
		if _, err := c.Do(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestExpireAtAndPersist(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	c.Set("k", []byte("v"))
	future := time.Now().Add(time.Hour).Unix()
	v, err := c.Do("EXPIREAT", "k", itoa(future))
	if err != nil || v.Int != 1 {
		t.Fatalf("expireat = %d, %v", v.Int, err)
	}
	if ttl, _ := c.TTL("k"); ttl <= 0 {
		t.Fatalf("ttl = %d", ttl)
	}
	v, err = c.Do("PERSIST", "k")
	if err != nil || v.Int != 1 {
		t.Fatalf("persist = %d, %v", v.Int, err)
	}
	if ttl, _ := c.TTL("k"); ttl != -1 {
		t.Fatalf("ttl after persist = %d", ttl)
	}
	if v, _ := c.Do("PERSIST", "k"); v.Int != 0 {
		t.Fatalf("second persist = %d", v.Int)
	}
	if _, err := c.Do("EXPIREAT", "k", "notanumber"); err == nil {
		t.Fatal("bad expireat accepted")
	}
}

func TestExistsMultiple(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	c.Set("a", []byte("1"))
	c.Set("b", []byte("2"))
	v, err := c.Do("EXISTS", "a", "b", "missing")
	if err != nil || v.Int != 2 {
		t.Fatalf("exists = %d, %v", v.Int, err)
	}
}

func TestKeysCommand(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	c.Set("user:1", []byte("a"))
	c.Set("user:2", []byte("b"))
	c.Set("other", []byte("c"))
	v, err := c.Do("KEYS", "user:*")
	if err != nil || len(v.Array) != 2 {
		t.Fatalf("keys = %v, %v", v.Array, err)
	}
}

func TestScanSyntaxErrors(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	for _, bad := range [][]string{
		{"SCAN", "abc"},
		{"SCAN", "0", "MATCH"},
		{"SCAN", "0", "COUNT", "0"},
		{"SCAN", "0", "COUNT", "x"},
		{"SCAN", "0", "NOPE", "1"},
	} {
		if _, err := c.Do(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestACLCommandSurface(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	if err := c.Auth("controller"); err != nil {
		t.Fatal(err)
	}
	// Role parsing.
	for _, role := range []string{"subject", "processor", "controller", "regulator"} {
		if _, err := c.Do("ACL", "ADDPRINCIPAL", "p-"+role, role); err != nil {
			t.Fatalf("role %s: %v", role, err)
		}
	}
	if _, err := c.Do("ACL", "ADDPRINCIPAL", "x", "superuser"); err == nil {
		t.Fatal("bogus role accepted")
	}
	// Grant with owner scope and TTL.
	if _, err := c.Do("ACL", "GRANT", "p-processor", "billing", "OWNER", "alice", "TTL", "3600"); err != nil {
		t.Fatal(err)
	}
	// Grant for unknown principal fails.
	if _, err := c.Do("ACL", "GRANT", "ghost", "billing"); err == nil {
		t.Fatal("grant to ghost accepted")
	}
	// Revoke reports count.
	v, err := c.Do("ACL", "REVOKE", "p-processor", "billing", "OWNER", "alice")
	if err != nil || v.Int != 1 {
		t.Fatalf("revoke = %d, %v", v.Int, err)
	}
	// Delete principal.
	if _, err := c.Do("ACL", "DELPRINCIPAL", "p-subject"); err != nil {
		t.Fatal(err)
	}
	// Bad syntax.
	for _, bad := range [][]string{
		{"ACL"},
		{"ACL", "NOPE"},
		{"ACL", "GRANT", "p-processor"},
		{"ACL", "GRANT", "p-processor", "x", "TTL", "-1"},
		{"ACL", "GRANT", "p-processor", "x", "OWNER"},
	} {
		if _, err := c.Do(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestGPutSyntaxErrors(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	for _, bad := range [][]string{
		{"GPUT", "k"},
		{"GPUT", "k", "v", "OWNER"},
		{"GPUT", "k", "v", "TTL", "abc"},
		{"GPUT", "k", "v", "TTL", "-1"},
		{"GPUT", "k", "v", "WHATEVER", "x"},
	} {
		if _, err := c.Do(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestCompactAndMaintainCommands(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	c.GPut("k", []byte("v"), gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Minute})
	if _, err := c.Do("COMPACT"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("MAINTAIN")
	if err != nil || !strings.Contains(v.Text(), "grants=") {
		t.Fatalf("maintain = %q, %v", v.Text(), err)
	}
}

func TestBreachBadTimestamps(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	if _, err := c.Do("BREACH", "yesterday", "today"); err == nil {
		t.Fatal("bad timestamps accepted")
	}
}

func TestPingWithArgument(t *testing.T) {
	_, c := startServer(t, core.Baseline())
	v, err := c.Do("PING", "hello")
	if err != nil || v.Text() != "hello" {
		t.Fatalf("ping arg = %q, %v", v.Text(), err)
	}
}

func TestGGetMissingIsNil(t *testing.T) {
	_, c := startServer(t, core.Strict(""))
	setupPrincipals(t, c)
	c.Auth("controller")
	c.Purpose("billing")
	if _, err := c.GGet("absent"); !errors.Is(err, gdprkv.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
