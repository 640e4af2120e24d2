package resp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteValue(v); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := NewReader(&buf).ReadValue()
	if err != nil {
		t.Fatalf("read back %q: %v", buf.String(), err)
	}
	return got
}

func TestSimpleStringRoundTrip(t *testing.T) {
	got := roundTrip(t, SimpleStringValue("OK"))
	if got.Type != SimpleString || got.Text() != "OK" {
		t.Fatalf("got %+v", got)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	got := roundTrip(t, ErrorValue("ERR something broke"))
	if !got.IsError() || got.Text() != "ERR something broke" {
		t.Fatalf("got %+v", got)
	}
}

func TestIntegerRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, -9223372036854775808, 9223372036854775807} {
		got := roundTrip(t, IntegerValue(n))
		if got.Type != Integer || got.Int != n {
			t.Fatalf("n=%d got %+v", n, got)
		}
	}
}

func TestBulkRoundTrip(t *testing.T) {
	cases := [][]byte{[]byte(""), []byte("hello"), []byte("with\r\nCRLF\x00binary")}
	for _, c := range cases {
		got := roundTrip(t, BulkValue(c))
		if got.Type != BulkString || !bytes.Equal(got.Str, c) {
			t.Fatalf("case %q got %+v", c, got)
		}
	}
}

func TestNullBulk(t *testing.T) {
	got := roundTrip(t, NullValue())
	if got.Type != BulkString || !got.Null {
		t.Fatalf("got %+v", got)
	}
}

func TestNullArray(t *testing.T) {
	got := roundTrip(t, NullArrayValue())
	if got.Type != Array || !got.Null {
		t.Fatalf("got %+v", got)
	}
}

func TestNestedArrayRoundTrip(t *testing.T) {
	v := ArrayValue(
		IntegerValue(1),
		ArrayValue(BulkStringValue("nested"), NullValue()),
		SimpleStringValue("done"),
	)
	got := roundTrip(t, v)
	if len(got.Array) != 3 {
		t.Fatalf("len = %d", len(got.Array))
	}
	inner := got.Array[1]
	if inner.Type != Array || len(inner.Array) != 2 || !inner.Array[1].Null {
		t.Fatalf("inner = %+v", inner)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand("SET", "key1", "value1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	args, err := NewReader(&buf).ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("SET"), []byte("key1"), []byte("value1")}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("args = %q", args)
	}
}

func TestReadCommandRejectsNonArray(t *testing.T) {
	_, err := NewReader(strings.NewReader(":1\r\n")).ReadCommand()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want protocol error", err)
	}
}

func TestReadCommandRejectsEmptyArray(t *testing.T) {
	_, err := NewReader(strings.NewReader("*0\r\n")).ReadCommand()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsUnknownType(t *testing.T) {
	_, err := NewReader(strings.NewReader("!oops\r\n")).ReadValue()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsBadInteger(t *testing.T) {
	_, err := NewReader(strings.NewReader(":abc\r\n")).ReadValue()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsMissingCRLF(t *testing.T) {
	_, err := NewReader(strings.NewReader("$3\r\nabcXY")).ReadValue()
	if err == nil {
		t.Fatal("want error for corrupt bulk terminator")
	}
}

func TestReadRejectsOversizedBulk(t *testing.T) {
	_, err := NewReader(strings.NewReader("$999999999999\r\n")).ReadValue()
	if err == nil {
		t.Fatal("want error for oversized bulk")
	}
}

func TestReadRejectsNegativeArrayLen(t *testing.T) {
	_, err := NewReader(strings.NewReader("*-7\r\n")).ReadValue()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadTruncatedStream(t *testing.T) {
	// A stream that ends mid-value must surface an EOF-ish error.
	_, err := NewReader(strings.NewReader("$10\r\nhello")).ReadValue()
	if err == nil {
		t.Fatal("want error for truncated bulk")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF-like", err)
	}
}

func TestDeepNestingRejected(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 64; i++ {
		b.WriteString("*1\r\n")
	}
	b.WriteString(":1\r\n")
	_, err := NewReader(strings.NewReader(b.String())).ReadValue()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want nesting rejection", err)
	}
}

func TestPipelinedValues(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.WriteCommand("PING"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := 0; i < 10; i++ {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if string(args[0]) != "PING" {
			t.Fatalf("command %d = %q", i, args[0])
		}
	}
}

func TestCommandPropertyRoundTrip(t *testing.T) {
	// Property: any non-empty list of arbitrary byte strings survives the
	// command encode/decode round trip.
	f := func(raw [][]byte) bool {
		if len(raw) == 0 {
			raw = [][]byte{[]byte("X")}
		}
		vs := make([]Value, len(raw))
		for i, b := range raw {
			vs[i] = BulkValue(b)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteValue(ArrayValue(vs...)); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadCommand()
		if err != nil {
			return false
		}
		if len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if !bytes.Equal(got[i], raw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegerPropertyRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.WriteValue(IntegerValue(n)) != nil || w.Flush() != nil {
			return false
		}
		v, err := NewReader(&buf).ReadValue()
		return err == nil && v.Int == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRecordMatchesValueEncoding: the journal's encoder writes the
// bytes the Value encoder it replaced wrote, so logs, generations and
// replication offsets stay byte-compatible.
func TestWriteRecordMatchesValueEncoding(t *testing.T) {
	args := [][]byte{[]byte("pd:alice"), {}, []byte("\x00\r\nbin")}
	var got, want bytes.Buffer
	w := NewWriter(&got)
	if err := w.WriteRecord("GREC", args); err != nil || w.Flush() != nil {
		t.Fatal(err)
	}
	vs := []Value{BulkStringValue("GREC")}
	for _, a := range args {
		vs = append(vs, BulkValue(a))
	}
	w = NewWriter(&want)
	if err := w.WriteValue(ArrayValue(vs...)); err != nil || w.Flush() != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteRecord wrote %q, the Value encoder %q", got.Bytes(), want.Bytes())
	}
}

// --- allocation budgets for the client hot path ---

// TestWriteCommandBytesAllocFree pins the encode fast path at zero
// allocations per command: headers come from the Writer's scratch array
// and payloads are written through without boxing into Values.
func TestWriteCommandBytesAllocFree(t *testing.T) {
	w := NewWriter(io.Discard)
	args := [][]byte{[]byte("SET"), []byte("user0000000042"), make([]byte, 100)}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.WriteCommandBytes(args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteCommandBytes allocates %.1f objects/op, want 0", allocs)
	}
	// WriteRecord, the journal's encoder, is the same path with the name
	// given apart.
	allocs = testing.AllocsPerRun(1000, func() {
		if err := w.WriteRecord("GREC", args[1:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteRecord allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReadIntegerAllocFree pins integer replies (and by extension every
// length header) at zero allocations: the digits are parsed in place from
// the buffered line, never copied out.
func TestReadIntegerAllocFree(t *testing.T) {
	wire := bytes.Repeat([]byte(":1234567890\r\n"), 2000)
	rd := bytes.NewReader(wire)
	r := NewReader(rd)
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := r.ReadValue()
		if err != nil || v.Int != 1234567890 {
			t.Fatalf("ReadValue = %v, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("integer reply read allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReadCommandAllocs pins the command parse at one allocation for the
// argument slice and one per argument: no Value tree is built on the way.
func TestReadCommandAllocs(t *testing.T) {
	wire := bytes.Repeat([]byte("*3\r\n$4\r\nGPUT\r\n$10\r\npd:alice:1\r\n$5\r\nvalue\r\n"), 2000)
	r := NewReader(bytes.NewReader(wire))
	allocs := testing.AllocsPerRun(1000, func() {
		if args, err := r.ReadCommand(); err != nil || len(args) != 3 {
			t.Fatalf("ReadCommand = %q, %v", args, err)
		}
	})
	if allocs != 4 {
		t.Fatalf("ReadCommand allocates %.1f objects for 3 arguments, want 4", allocs)
	}
}
