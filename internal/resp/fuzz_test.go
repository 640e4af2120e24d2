package resp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// seedCorpus mixes well-formed values, the protocol edge cases the parser
// must reject, and resource-exhaustion headers the allocation guards must
// neutralise. Shared by both fuzz targets.
var seedCorpus = []string{
	"+OK\r\n",
	"-ERR something went wrong\r\n",
	":42\r\n",
	":-9223372036854775808\r\n",
	"$5\r\nhello\r\n",
	"$0\r\n\r\n",
	"$-1\r\n",
	"*-1\r\n",
	"*0\r\n",
	"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$3\r\nval\r\n",
	"*2\r\n*1\r\n:1\r\n$2\r\nab\r\n",
	"*1\r\n*1\r\n*1\r\n*1\r\n:0\r\n",
	// adversarial: forged giant headers, bad lengths, missing CRLF
	"$536870912\r\nx",
	"$99999999999999\r\n",
	"*1000000\r\n",
	"*1000000000\r\n",
	"$-2\r\n",
	"$3\r\nabcd\r\n",
	"$3\r\nab\r\n",
	"+no terminator",
	":notanint\r\n",
	"!bogus\r\n",
	"\x00\x01\x02",
	"*2\r\n$3\r\nGET\r\n:5\r\n",
	strings.Repeat("*1\r\n", 64) + ":1\r\n",
}

// valuesEqual compares decoded values structurally.
func valuesEqual(a, b Value) bool {
	if a.Type != b.Type || a.Null != b.Null || a.Int != b.Int {
		return false
	}
	if !bytes.Equal(a.Str, b.Str) {
		return false
	}
	if len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !valuesEqual(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

// FuzzReadValue asserts the core parser invariants on arbitrary bytes: it
// never panics, never allocates proportionally to a forged header (the
// guards turn those into errors), and every successfully parsed value
// re-encodes to bytes that parse back to an identical value.
func FuzzReadValue(f *testing.F) {
	for _, s := range seedCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		v, err := r.ReadValue()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteValue(v); err != nil {
			t.Fatalf("parsed value failed to encode: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		v2, err := NewReader(bytes.NewReader(buf.Bytes())).ReadValue()
		if err != nil {
			t.Fatalf("re-encoded value failed to parse: %v\nencoded: %q", err, buf.Bytes())
		}
		if !valuesEqual(v, v2) {
			t.Fatalf("round trip changed value:\n in: %#v\nout: %#v", v, v2)
		}
		// The bulk strings of an array share one buffer: an append to one,
		// longer than the CRLF that followed it, must leave every other one
		// as it was.
		got, want := bulkStrings(&v), bulkStrings(&v2)
		for i, s := range got {
			*s = append(*s, "!!!"...)
			for j, o := range got {
				if j != i && !bytes.Equal(*o, *want[j]) {
					t.Fatalf("append to bulk string %d changed bulk string %d to %q", i, j, *o)
				}
			}
			*s = (*s)[:len(*s)-3]
		}
	})
}

// bulkStrings returns a pointer to each bulk string payload in v, depth first.
func bulkStrings(v *Value) []*[]byte {
	var out []*[]byte
	if v.Type == BulkString && !v.Null {
		out = append(out, &v.Str)
	}
	for i := range v.Array {
		out = append(out, bulkStrings(&v.Array[i])...)
	}
	return out
}

// readCommandRef is ReadCommand as it was before it read commands without a
// Value tree: the reference FuzzReadCommand holds the new parser to.
func readCommandRef(r *Reader) ([][]byte, error) {
	v, err := r.ReadValue()
	if err != nil {
		return nil, err
	}
	if v.Type != Array || v.Null || len(v.Array) == 0 {
		return nil, fmt.Errorf("%w: expected command array", ErrProtocol)
	}
	args := make([][]byte, len(v.Array))
	for i, e := range v.Array {
		if e.Type != BulkString || e.Null {
			return nil, fmt.Errorf("%w: command argument %d is not a bulk string", ErrProtocol, i)
		}
		args[i] = e.Str
	}
	return args, nil
}

// FuzzReadCommand asserts the command-path invariants: no panics, each
// command of the stream accepted or refused as readCommandRef does it, with
// the same arguments or error text, and any accepted command a non-empty
// argument vector whose re-encoding parses to the same arguments — the
// property the server and the replication stream both rely on.
func FuzzReadCommand(f *testing.F) {
	for _, s := range seedCorpus {
		f.Add([]byte(s))
	}
	f.Add([]byte("*2\r\n$4\r\nPING\r\n$0\r\n\r\n*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n:1\r\n$-1\r\n$2\r\nab"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, ref := NewReader(bytes.NewReader(data)), NewReader(bytes.NewReader(data))
		for {
			args, err := cr.ReadCommand()
			want, werr := readCommandRef(ref)
			if fmt.Sprint(err) != fmt.Sprint(werr) || len(args) != len(want) {
				t.Fatalf("ReadCommand = %q, %v; the reference %q, %v", args, err, want, werr)
			}
			for i := range want {
				if !bytes.Equal(args[i], want[i]) {
					t.Fatalf("arg %d = %q, the reference %q", i, args[i], want[i])
				}
			}
			if err != nil {
				break
			}
		}
		r := NewReader(bytes.NewReader(data))
		args, err := r.ReadCommand()
		if err != nil {
			return
		}
		if len(args) == 0 {
			t.Fatal("accepted empty command")
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		vs := make([]Value, len(args))
		for i, a := range args {
			vs[i] = BulkValue(a)
		}
		if err := w.WriteValue(ArrayValue(vs...)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		args2, err := NewReader(bytes.NewReader(buf.Bytes())).ReadCommand()
		if err != nil {
			t.Fatalf("re-encoded command failed to parse: %v", err)
		}
		if len(args2) != len(args) {
			t.Fatalf("arg count changed: %d -> %d", len(args), len(args2))
		}
		for i := range args {
			if !bytes.Equal(args[i], args2[i]) {
				t.Fatalf("arg %d changed: %q -> %q", i, args[i], args2[i])
			}
		}
	})
}

// TestForgedHeadersDoNotPreallocate pins the allocation guards directly:
// headers declaring huge payloads must fail with bounded allocation once
// the stream ends, instead of reserving the declared size up front.
func TestForgedHeadersDoNotPreallocate(t *testing.T) {
	cases := []string{
		"$536870911\r\nonly-a-few-bytes",
		"*1048576\r\n:1\r\n",
		"$" + strings.Repeat("9", 14) + "\r\n",
	}
	for _, in := range cases {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(strings.NewReader(in))
				if _, err := r.ReadValue(); err == nil {
					b.Fatalf("forged header %q accepted", in)
				}
			}
		})
		if per := res.AllocedBytesPerOp(); per > 256<<10 {
			t.Errorf("input %.20q allocates %d B/op — header-proportional allocation is back", in, per)
		}
	}
}

// TestUnterminatedLineBounded pins the line guard: a never-ending simple
// string line fails at MaxLineLen rather than buffering forever.
func TestUnterminatedLineBounded(t *testing.T) {
	in := "+" + strings.Repeat("a", MaxLineLen*4)
	r := NewReader(strings.NewReader(in))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("unterminated giant line accepted")
	}
}

// TestOversizedArrayHeaderRejected pins the MaxArrayLen cap.
func TestOversizedArrayHeaderRejected(t *testing.T) {
	r := NewReader(strings.NewReader("*1048577\r\n"))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("array beyond MaxArrayLen accepted")
	}
}
