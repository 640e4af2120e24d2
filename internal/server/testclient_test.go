package server

import (
	"context"
	"testing"

	"gdprstore/internal/resp"
	"gdprstore/pkg/gdprkv"
)

// tclient wraps the public SDK with the no-context, single-connection
// ergonomics the server tests want: pool size 1, so a mid-test AUTH or
// PURPOSE issued through Do binds to the one pooled connection exactly
// like a redis-cli session. It replaced the deprecated internal/client
// shim when that package was removed — the tests now drive the server
// through the same code path real SDK users do.
type tclient struct {
	c    *gdprkv.Client
	addr string
}

func tdial(t testing.TB, addr string) *tclient {
	t.Helper()
	c, err := gdprkv.Dial(context.Background(), addr, gdprkv.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &tclient{c: c, addr: addr}
}

func ctxb() context.Context { return context.Background() }

func (c *tclient) SDK() *gdprkv.Client { return c.c }
func (c *tclient) Close() error        { return c.c.Close() }

func (c *tclient) Do(args ...string) (resp.Value, error) { return c.c.Do(ctxb(), args...) }
func (c *tclient) Ping() error                           { return c.c.Ping(ctxb()) }

// Auth and Purpose rebind the single pooled connection's session state.
func (c *tclient) Auth(actor string) error {
	_, err := c.Do("AUTH", actor)
	return err
}

func (c *tclient) Purpose(p string) error {
	_, err := c.Do("PURPOSE", p)
	return err
}

func (c *tclient) Set(key string, val []byte) error { return c.c.Set(ctxb(), key, val) }
func (c *tclient) SetEX(key string, val []byte, secs int64) error {
	return c.c.SetEX(ctxb(), key, val, secs)
}
func (c *tclient) Get(key string) ([]byte, error)    { return c.c.Get(ctxb(), key) }
func (c *tclient) Del(keys ...string) (int64, error) { return c.c.Del(ctxb(), keys...) }
func (c *tclient) TTL(key string) (int64, error)     { return c.c.TTL(ctxb(), key) }
func (c *tclient) Expire(key string, secs int64) (bool, error) {
	return c.c.Expire(ctxb(), key, secs)
}
func (c *tclient) Scan(cursor uint64, match string, count int) ([]string, uint64, error) {
	return c.c.Scan(ctxb(), cursor, match, count)
}
func (c *tclient) MSet(keys []string, vals [][]byte) error { return c.c.MSet(ctxb(), keys, vals) }
func (c *tclient) MGet(keys ...string) ([][]byte, error)   { return c.c.MGet(ctxb(), keys...) }

func (c *tclient) GPut(key string, val []byte, opts gdprkv.PutOptions) error {
	return c.c.GPut(ctxb(), key, val, opts)
}
func (c *tclient) GGet(key string) ([]byte, error) { return c.c.GGet(ctxb(), key) }
func (c *tclient) GMPut(keys []string, vals [][]byte, opts gdprkv.PutOptions) error {
	return c.c.GMPut(ctxb(), keys, vals, opts)
}
func (c *tclient) GMGet(keys ...string) ([]gdprkv.BatchValue, error) {
	return c.c.GMGet(ctxb(), keys...)
}
func (c *tclient) GetUser(owner string) (map[string][]byte, error) {
	return c.c.GetUser(ctxb(), owner)
}
func (c *tclient) ExportUser(owner string) ([]byte, error) { return c.c.ExportUser(ctxb(), owner) }
func (c *tclient) ForgetUser(owner string) (int64, error)  { return c.c.ForgetUser(ctxb(), owner) }
func (c *tclient) Object(owner, purpose string) error      { return c.c.Object(ctxb(), owner, purpose) }
func (c *tclient) Unobject(owner, purpose string) error {
	return c.c.Unobject(ctxb(), owner, purpose)
}
func (c *tclient) Info(section string) (string, error) { return c.c.Info(ctxb(), section) }
func (c *tclient) ReplicaOf(host, port string) error   { return c.c.ReplicaOf(ctxb(), host, port) }
func (c *tclient) PromoteToPrimary() error             { return c.c.PromoteToPrimary(ctxb()) }
