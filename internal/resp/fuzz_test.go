package resp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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
	// key/value pairs (ReadPairs): a repeated key, a null value, an odd
	// count, a value cut short, a forged giant value in a forged giant reply
	"*4\r\n$1\r\na\r\n$2\r\nbc\r\n$1\r\na\r\n$0\r\n\r\n",
	"*2\r\n$1\r\nk\r\n$-1\r\n",
	"*3\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n",
	"*2\r\n$1\r\nk\r\n$5\r\nab",
	"*1000000\r\n$536870912\r\nx",
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
// guards turn those into errors), every successfully parsed value
// re-encodes to bytes that parse back to an identical value, and ReadPairs
// decodes what ReadValue does (checkPairs).
func FuzzReadValue(f *testing.F) {
	for _, s := range seedCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := NewReader(src)
		v, err := r.ReadValue()
		checkPairs(t, data, v, err, len(data)-src.Len()-r.Buffered())
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

// checkPairs holds ReadPairs to ReadValue, which read v from data, or
// failed with err, consuming used bytes. Where ReadValue refuses, ReadPairs
// refuses. Where it reads an array of key/value bulk strings, ReadPairs
// returns each key's last value, capped at its length; where it reads
// another array, ReadPairs refuses; any other value ReadPairs returns as it
// is. Unless it refused, ReadPairs consumed the bytes ReadValue did.
func checkPairs(t *testing.T, data []byte, v Value, err error, used int) {
	src := bytes.NewReader(data)
	r := NewReader(src)
	m, pv, perr := r.ReadPairs()
	isArray := err == nil && v.Type == Array && !v.Null
	pairs := isArray && len(v.Array)%2 == 0
	for _, e := range v.Array {
		pairs = pairs && e.Type == BulkString && !e.Null
	}
	switch {
	case err != nil:
		if perr == nil {
			t.Fatalf("ReadPairs accepted what ReadValue refused (%v): %v, %v", err, m, pv)
		}
		return
	case pairs:
		want := map[string][]byte{}
		for i := 0; i < len(v.Array); i += 2 {
			want[string(v.Array[i].Str)] = v.Array[i+1].Str
		}
		if perr != nil || m == nil || len(m) != len(want) {
			t.Fatalf("ReadPairs = %d pairs, %v; ReadValue read %d distinct keys", len(m), perr, len(want))
		}
		for k, val := range m {
			if w, ok := want[k]; !ok || !bytes.Equal(val, w) || cap(val) != len(val) {
				t.Fatalf("ReadPairs[%q] = %q (cap %d); ReadValue read %q", k, val, cap(val), w)
			}
		}
	case isArray:
		if !errors.Is(perr, ErrProtocol) {
			t.Fatalf("ReadPairs = %v, %v for an array that is not pairs, want a refusal", m, perr)
		}
	case perr != nil || m != nil || !valuesEqual(pv, v):
		t.Fatalf("ReadPairs = %v, %#v, %v; ReadValue read %#v", m, pv, perr, v)
	}
	if got := len(data) - src.Len() - r.Buffered(); got != used {
		t.Fatalf("ReadPairs consumed %d bytes, ReadValue %d", got, used)
	}
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

// TestForgedHeadersDoNotPreallocate pins the allocation guards of ReadValue
// and ReadPairs directly: headers declaring huge payloads must fail with
// bounded allocation once the stream ends, instead of reserving the
// declared size up front.
func TestForgedHeadersDoNotPreallocate(t *testing.T) {
	cases := []string{
		"$536870911\r\nonly-a-few-bytes",
		"*1048576\r\n:1\r\n",
		"$" + strings.Repeat("9", 14) + "\r\n",
	}
	pairs := []string{"*1000000\r\n$536870912\r\nx", "*2\r\n$1\r\nk\r\n$536870911\r\nx"}
	for _, in := range append(cases, pairs...) {
		for name, read := range map[string]func(*Reader) error{
			"ReadValue": func(r *Reader) error { _, err := r.ReadValue(); return err },
			"ReadPairs": func(r *Reader) error { _, _, err := r.ReadPairs(); return err },
		} {
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if err := read(NewReader(strings.NewReader(in))); err == nil {
					t.Fatalf("forged header %q accepted", in)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256<<10 {
				t.Errorf("%s of %.20q allocates %d B/op — header-proportional allocation is back", name, in, per)
			}
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
