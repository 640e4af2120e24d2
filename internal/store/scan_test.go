package store

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKeysAll(t *testing.T) {
	db, _ := newTestDB()
	for i := 0; i < 5; i++ {
		db.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	got := db.Keys("*")
	if len(got) != 5 {
		t.Fatalf("Keys(*) = %d keys", len(got))
	}
}

func TestKeysPattern(t *testing.T) {
	db, _ := newTestDB()
	db.Set("user:1", []byte("a"))
	db.Set("user:2", []byte("b"))
	db.Set("order:1", []byte("c"))
	got := db.Keys("user:*")
	sort.Strings(got)
	if strings.Join(got, ",") != "user:1,user:2" {
		t.Fatalf("got %v", got)
	}
}

func TestKeysSkipsExpired(t *testing.T) {
	db, vc := newTestDB()
	db.Set("live", []byte("a"))
	db.SetEX("dead", []byte("b"), time.Second)
	vc.Advance(2 * time.Second)
	got := db.Keys("*")
	if len(got) != 1 || got[0] != "live" {
		t.Fatalf("got %v", got)
	}
}

func TestScanCompleteness(t *testing.T) {
	db, _ := newTestDB()
	want := map[string]bool{}
	for i := 0; i < 137; i++ {
		k := fmt.Sprintf("key%04d", i)
		db.Set(k, []byte("v"))
		want[k] = true
	}
	var cursor uint64
	seen := map[string]bool{}
	iterations := 0
	for {
		keys, next := db.Scan(cursor, "*", 10)
		for _, k := range keys {
			seen[k] = true
		}
		iterations++
		if iterations > 100 {
			t.Fatal("scan did not terminate")
		}
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(seen) != len(want) {
		t.Fatalf("scan saw %d keys, want %d", len(seen), len(want))
	}
}

func TestScanDefaultsCount(t *testing.T) {
	db, _ := newTestDB()
	db.Set("a", []byte("v"))
	keys, next := db.Scan(0, "*", 0)
	if len(keys) != 1 || next != 0 {
		t.Fatalf("keys=%v next=%d", keys, next)
	}
}

func TestRangeKeysEarlyStop(t *testing.T) {
	db, _ := newTestDB()
	for i := 0; i < 10; i++ {
		db.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	n := 0
	db.RangeKeys(func(k string, v []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d keys, want 3", n)
	}
}

func TestMatchGlobBasics(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"a*c", "ac", true},
		{"a*c", "abbbc", true},
		{"a*c", "abbbd", false},
		{"**", "whatever", true},
		{"user:*:profile", "user:42:profile", true},
		{"user:*:profile", "user:42:orders", false},
		{"[abc]", "b", true},
		{"[abc]", "d", false},
		{"[^abc]", "d", true},
		{"[^abc]", "a", false},
		{"[a-c]x", "bx", true},
		{"[a-c]x", "dx", false},
		{"\\*", "*", true},
		{"\\*", "x", false},
		{"h[ae]llo", "hello", true},
		{"h[ae]llo", "hallo", true},
		{"h[ae]llo", "hillo", false},
		{"[", "x", false},  // unterminated class
		{"[]", "x", false}, // empty-ish class
	}
	for _, c := range cases {
		if got := MatchGlob(c.pattern, c.s); got != c.want {
			t.Errorf("MatchGlob(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestMatchGlobAgainstRegexp(t *testing.T) {
	// Property: for patterns made only of literals, '?' and '*', MatchGlob
	// agrees with the equivalent regexp.
	toRe := func(p string) *regexp.Regexp {
		var b strings.Builder
		b.WriteString("^")
		for _, r := range p {
			switch r {
			case '*':
				b.WriteString(".*")
			case '?':
				b.WriteString(".")
			default:
				b.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		b.WriteString("$")
		return regexp.MustCompile(b.String())
	}
	alphabet := []byte("ab*?")
	f := func(pSeed, sSeed []byte) bool {
		var p, s strings.Builder
		for _, x := range pSeed {
			p.WriteByte(alphabet[int(x)%len(alphabet)])
		}
		for _, x := range sSeed {
			s.WriteByte(alphabet[int(x)%2]) // subject only a/b
		}
		if len(p.String()) > 8 || len(s.String()) > 12 {
			return true // keep backtracking bounded
		}
		return MatchGlob(p.String(), s.String()) == toRe(p.String()).MatchString(s.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRoundTrip(t *testing.T) {
	// Every journaled op must be replayable via Apply to the same state.
	src, vc := newTestDB()
	dst := New(Options{Clock: vc, Seed: 42})
	src.SetJournal(JournalFunc(func(name string, args ...[]byte) error {
		return dst.Apply(name, args)
	}))
	src.Set("plain", []byte("1"))
	src.SetEX("ttl", []byte("2"), time.Hour)
	src.Set("gone", []byte("3"))
	src.Del("gone")
	src.SetEX("persisted", []byte("4"), time.Minute)
	src.Persist("persisted")
	src.Expire("plain", 30*time.Minute)

	for _, k := range []string{"plain", "ttl", "persisted"} {
		sv, sok := src.Get(k)
		dv, dok := dst.Get(k)
		if sok != dok || string(sv) != string(dv) {
			t.Fatalf("key %q diverged: src=%q,%v dst=%q,%v", k, sv, sok, dv, dok)
		}
		sd, sst := src.TTL(k)
		dd, dst := dst.TTL(k)
		if sst != dst || sd != dd {
			t.Fatalf("key %q TTL diverged: src=%v,%v dst=%v,%v", k, sd, sst, dd, dst)
		}
	}
	if dst.Exists("gone") {
		t.Fatal("deleted key resurrected in replica")
	}
}

func TestApplyUnknownOp(t *testing.T) {
	db, _ := newTestDB()
	if err := db.Apply("NONSENSE", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestApplyBadArity(t *testing.T) {
	db, _ := newTestDB()
	for _, c := range []struct {
		name string
		args [][]byte
	}{
		{"SET", [][]byte{[]byte("k")}},
		{"SETEX", [][]byte{[]byte("k"), []byte("v")}},
		{"EXPIREAT", [][]byte{[]byte("k")}},
		{"PERSIST", nil},
	} {
		if err := db.Apply(c.name, c.args); err == nil {
			t.Errorf("Apply(%s) with bad arity accepted", c.name)
		}
	}
}

func TestSnapshotSkipsExpired(t *testing.T) {
	db, vc := newTestDB()
	db.Set("live", []byte("1"))
	db.SetEX("ttl", []byte("2"), time.Hour)
	db.SetEX("dead", []byte("3"), time.Second)
	vc.Advance(2 * time.Second)
	var ops []string
	err := db.SnapshotRecords(func(k string, e Entry) error {
		op := "SETEX:"
		if e.Deadline.IsZero() {
			op = "SET:"
		}
		ops = append(ops, op+k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ops)
	want := "SET:live,SETEX:ttl"
	if strings.Join(ops, ",") != want {
		t.Fatalf("snapshot = %v, want %s", ops, want)
	}
}
