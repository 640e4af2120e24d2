// Package resp implements the REdis Serialization Protocol (RESP2), the
// wire format spoken between the gdprstore server and its clients. It is the
// same protocol real Redis v4 clients use, so the network-mode benchmarks
// exercise an equivalent parse/serialise path to the paper's setup.
//
// RESP2 types:
//
//	+OK\r\n                  simple string
//	-ERR message\r\n         error
//	:42\r\n                  integer
//	$5\r\nhello\r\n          bulk string ($-1 = null)
//	*2\r\n...                array (*-1 = null)
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unsafe"
)

// Type identifies a RESP value kind.
type Type byte

// RESP value kinds.
const (
	SimpleString Type = '+'
	Error        Type = '-'
	Integer      Type = ':'
	BulkString   Type = '$'
	Array        Type = '*'
)

// Value is one decoded RESP value.
type Value struct {
	Type  Type
	Str   []byte  // SimpleString, Error, BulkString payload
	Int   int64   // Integer payload
	Array []Value // Array payload
	Null  bool    // true for null bulk strings / null arrays
}

// Common protocol errors.
var (
	ErrProtocol   = errors.New("resp: protocol error")
	errNotCommand = fmt.Errorf("%w: expected command array", ErrProtocol)
	errNotPairs   = fmt.Errorf("%w: expected an array of key/value bulk strings", ErrProtocol)
	// MaxBulkLen bounds a single bulk string (512 MB, Redis's limit). A
	// violated bound is a protocol error: the stream is unparseable past
	// it, and servers reply before disconnecting on ErrProtocol.
	errBulkTooLong = fmt.Errorf("%w: bulk string length out of range", ErrProtocol)
)

// MaxBulkLen is the largest accepted bulk string, matching Redis's
// proto-max-bulk-len default of 512 MB.
const MaxBulkLen = 512 << 20

// MaxArrayLen bounds a multibulk request, matching Redis's 1M element cap.
const MaxArrayLen = 1 << 20

// MaxLineLen bounds a simple-string/error/integer line, matching Redis's
// 64 KB inline limit. Without it, a malicious peer could stream an
// unterminated line and grow the reader's buffer without bound.
const MaxLineLen = 64 << 10

// Allocation guards: declared lengths are only trusted up to these sizes;
// larger payloads grow buffers incrementally as bytes actually arrive, so
// a forged "$536870912" or "*1000000" header alone cannot make the server
// allocate gigabytes (the attacker must send the bytes to cost the bytes).
const (
	bulkPreallocLimit  = 64 << 10
	arrayPreallocLimit = 1 << 10
)

// SimpleStringValue constructs a simple-string value.
func SimpleStringValue(s string) Value { return Value{Type: SimpleString, Str: []byte(s)} }

// ErrorValue constructs an error value.
func ErrorValue(msg string) Value { return Value{Type: Error, Str: []byte(msg)} }

// IntegerValue constructs an integer value.
func IntegerValue(n int64) Value { return Value{Type: Integer, Int: n} }

// BulkValue constructs a bulk-string value.
func BulkValue(b []byte) Value { return Value{Type: BulkString, Str: b} }

// BulkStringValue constructs a bulk-string value from a string.
func BulkStringValue(s string) Value { return Value{Type: BulkString, Str: []byte(s)} }

// NullValue constructs the null bulk string ($-1).
func NullValue() Value { return Value{Type: BulkString, Null: true} }

// NullArrayValue constructs the null array (*-1).
func NullArrayValue() Value { return Value{Type: Array, Null: true} }

// ArrayValue constructs an array value.
func ArrayValue(vs ...Value) Value { return Value{Type: Array, Array: vs} }

// IsError reports whether v is a protocol-level error reply.
func (v Value) IsError() bool { return v.Type == Error }

// Text returns the value's string payload (for simple/bulk/error values).
func (v Value) Text() string { return string(v.Str) }

// Reader decodes RESP values from a stream.
type Reader struct {
	br *bufio.Reader
}

// shared is the buffer the bulk strings of one array are cut from. The bytes
// and strings cut so far, and the elements after this one in the innermost
// array being read, size its next chunk.
type shared struct {
	buf              []byte
	size, strs, left int64
}

// parseInt converts a decimal ASCII line to int64 without the string
// conversion strconv.ParseInt would force (the line aliases the read
// buffer, so it must be consumed before the next read — which this does).
// It accepts exactly what the protocol produces: an optional sign and
// digits, no spaces, no empty input.
func parseInt(line []byte) (int64, bool) {
	if len(line) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	switch line[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(line) {
		return 0, false
	}
	// Accumulate negatively: the int64 range is asymmetric and only the
	// negative side holds every magnitude (MinInt64 has no positive twin).
	var n int64
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n < (-1<<63)/10 {
			return 0, false
		}
		n = n*10 - int64(d)
		if n > 0 {
			return 0, false
		}
	}
	if !neg {
		if n == -1<<63 {
			return 0, false
		}
		n = -n
	}
	return n, true
}

// NewReader wraps r in a buffered RESP decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 16*1024)}
}

// Reset discards any buffered data and switches the decoder to read from
// rd, letting a Reader (and its 16 KB buffer) be reused across streams.
func (r *Reader) Reset(rd io.Reader) { r.br.Reset(rd) }

// ReadValue decodes the next value from the stream. The bulk strings of an
// array share one buffer, each capped at its own length, so an append to one
// reallocates rather than overwrite the next; copy one before modifying it.
func (r *Reader) ReadValue() (Value, error) {
	return r.readValue(0, nil)
}

// Buffered returns the number of bytes already read from the connection and
// waiting to be decoded. Servers use it to flush replies only when a
// pipelined batch has drained.
func (r *Reader) Buffered() int { return r.br.Buffered() }

const maxNestingDepth = 32

// readValue decodes one value; sh is nil outside an array and for a command.
func (r *Reader) readValue(depth int, sh *shared) (Value, error) {
	if depth > maxNestingDepth {
		return Value{}, fmt.Errorf("%w: nesting too deep", ErrProtocol)
	}
	t, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Type(t) {
	case SimpleString, Error:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Type(t), Str: line}, nil
	case Integer:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Integer, Int: n}, nil
	case BulkString:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Type: BulkString, Null: true}, nil
		}
		if n < 0 || n > MaxBulkLen {
			return Value{}, errBulkTooLong
		}
		buf, err := r.readN(n+2, sh)
		if err != nil {
			return Value{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk string missing CRLF", ErrProtocol)
		}
		return Value{Type: BulkString, Str: buf[:n:n]}, nil
	case Array:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Type: Array, Null: true}, nil
		}
		if n < 0 || n > MaxArrayLen {
			return Value{}, fmt.Errorf("%w: invalid array length %d", ErrProtocol, n)
		}
		// Trust the declared element count only up to the prealloc limit:
		// beyond it the slice grows as elements actually parse, so a forged
		// header cannot reserve a million Value slots up front.
		prealloc := n
		if prealloc > arrayPreallocLimit {
			prealloc = arrayPreallocLimit
		}
		vs := make([]Value, 0, prealloc)
		if sh == nil {
			sh = new(shared)
		}
		for i := int64(0); i < n; i++ {
			sh.left = n - i - 1
			v, err := r.readValue(depth+1, sh)
			if err != nil {
				return Value{}, err
			}
			vs = append(vs, v)
		}
		return Value{Type: Array, Array: vs}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown type byte %q", ErrProtocol, t)
	}
}

// ReadCommand decodes a client command (array of bulk strings) and returns
// its arguments, read into one slice with no Value tree. It accepts and
// refuses what ReadValue would, then rejects non-command values; inline
// commands are not supported.
func (r *Reader) ReadCommand() ([][]byte, error) {
	t, err := r.br.Peek(1)
	if err != nil {
		return nil, err
	}
	if Type(t[0]) != Array {
		if _, err = r.ReadValue(); err == nil {
			err = errNotCommand
		}
		return nil, err
	}
	_, _ = r.br.Discard(1)
	n, err := r.readInt()
	switch {
	case err != nil:
		return nil, err
	case n < -1 || n > MaxArrayLen:
		return nil, fmt.Errorf("%w: invalid array length %d", ErrProtocol, n)
	case n <= 0:
		return nil, errNotCommand
	}
	args := make([][]byte, 0, min(n, arrayPreallocLimit))
	bad := int64(-1)
	for i := int64(0); i < n; i++ {
		// Every element parses before a wrong one is named, as in ReadValue.
		v, err := r.readValue(1, nil)
		if err != nil {
			return nil, err
		}
		if (v.Type != BulkString || v.Null) && bad < 0 {
			bad = i
		}
		args = append(args, v.Str)
	}
	if bad >= 0 {
		return nil, fmt.Errorf("%w: command argument %d is not a bulk string", ErrProtocol, bad)
	}
	return args, nil
}

// ReadPairs decodes the next value into a map when it is what a GETUSER
// reply is: an array of an even number of bulk strings, none null, each
// even element a key and the one after it its value. It builds no Value
// tree: the values are cut from one buffer, each capped at its own length
// as ReadValue's are, and the keys are substrings of one string. Any other
// value it returns as ReadValue does, with a nil map (an error reply, say),
// except an array of another shape, which it reads whole and then refuses.
// It accepts and refuses what ReadValue would, as ReadCommand does.
func (r *Reader) ReadPairs() (map[string][]byte, Value, error) {
	if t, err := r.br.Peek(1); err != nil || Type(t[0]) != Array {
		v, err := r.ReadValue()
		return nil, v, err
	}
	_, _ = r.br.Discard(1)
	n, err := r.readInt()
	switch {
	case err != nil:
		return nil, Value{}, err
	case n == -1:
		return nil, Value{Type: Array, Null: true}, nil
	case n < 0 || n > MaxArrayLen:
		return nil, Value{}, fmt.Errorf("%w: invalid array length %d", ErrProtocol, n)
	}
	// slabs[0] gathers the keys' bytes and slabs[1] the values'; lens holds
	// every element's length, in order.
	var slabs [2][]byte
	lens := make([]int32, 0, min(n, arrayPreallocLimit))
	bad := n%2 != 0
	for i := int64(0); i < n; i++ {
		if t, err := r.br.Peek(1); err != nil || Type(t[0]) != BulkString {
			// Every element parses before the shape is refused, as in
			// ReadValue.
			if _, err := r.readValue(1, nil); err != nil {
				return nil, Value{}, err
			}
			bad = true
			continue
		}
		_, _ = r.br.Discard(1)
		m, err := r.readInt()
		switch {
		case err != nil:
			return nil, Value{}, err
		case m == -1:
			bad = true
			continue
		case m < 0 || m > MaxBulkLen:
			return nil, Value{}, errBulkTooLong
		}
		s := &slabs[i%2]
		if int64(cap(*s)-len(*s)) < m+2 {
			// Room for this string, its CRLF and the slab's strings after
			// it at the mean size so far.
			mean, left := (int64(len(*s))+m)/(i/2+1), (n-i-1)/2
			*s = grow(*s, m+2+mean*left)
		}
		if *s, err = r.appendN(*s, m+2); err != nil {
			return nil, Value{}, err
		}
		if end := len(*s) - 2; (*s)[end] != '\r' || (*s)[end+1] != '\n' {
			return nil, Value{}, fmt.Errorf("%w: bulk string missing CRLF", ErrProtocol)
		}
		*s = (*s)[:len(*s)-2] // the next string overwrites the CRLF
		lens = append(lens, int32(m))
	}
	if bad {
		return nil, Value{}, errNotPairs
	}
	// The key slab is written no more, so it can back the keys' string.
	keys, vals := unsafe.String(unsafe.SliceData(slabs[0]), len(slabs[0])), slabs[1]
	out := make(map[string][]byte, len(lens)/2)
	for i := 0; i < len(lens); i += 2 {
		k, v := int(lens[i]), int(lens[i+1])
		out[keys[:k]] = vals[:v:v]
		keys, vals = keys[k:], vals[v:]
	}
	return out, Value{}, nil
}

// appendN appends the next n bytes of the stream to b, growing b only as
// they arrive (grow).
func (r *Reader) appendN(b []byte, n int64) ([]byte, error) {
	for end := len(b) + int(n); len(b) < end; {
		if len(b) == cap(b) {
			b = grow(b, int64(end-len(b)))
		}
		m, err := io.ReadFull(r.br, b[len(b):min(cap(b), end)])
		if b = b[:len(b)+m]; err != nil {
			return nil, err
		}
	}
	return b, nil
}

// grow returns b with room for n more bytes, or for only as many as b
// holds or bulkPreallocLimit, whichever is more: so the allocation tracks
// bytes actually received, never a declared length alone, and doubles as
// they arrive. Short of room, it copies b into a buffer of exactly that.
func grow(b []byte, n int64) []byte {
	n = min(n, max(int64(len(b)), bulkPreallocLimit))
	if int64(cap(b)-len(b)) >= n {
		return b
	}
	nb := make([]byte, len(b), len(b)+int(n))
	copy(nb, b)
	return nb
}

// readN reads exactly n declared bytes (appendN). Up to bulkPreallocLimit,
// inside an array, the bytes are cut from its shared buffer, whose next
// chunk holds these n and the elements after them at the mean size cut so
// far, under the same limit; otherwise they get a buffer of their own.
func (r *Reader) readN(n int64, sh *shared) ([]byte, error) {
	if sh == nil || n > bulkPreallocLimit {
		return r.appendN(nil, n)
	}
	if int64(cap(sh.buf)-len(sh.buf)) < n {
		mean := (sh.size + n) / (sh.strs + 1)
		sh.buf = make([]byte, 0, min(n+mean*sh.left, bulkPreallocLimit))
	}
	sh.size, sh.strs = sh.size+n, sh.strs+1
	start := len(sh.buf)
	var err error
	if sh.buf, err = r.appendN(sh.buf, n); err != nil {
		return nil, err
	}
	return sh.buf[start:], nil
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.readLineInline()
	if err != nil {
		return nil, err
	}
	// The inline line aliases the read buffer; copy so the returned slice
	// survives the next read (it becomes a Value.Str the caller keeps).
	return append([]byte(nil), line...), nil
}

// readLineInline reads one CRLF-terminated line and returns it WITHOUT
// copying: the result aliases the read buffer and is valid only until the
// next read. Length headers and integers are parsed in place, so those
// paths skip the per-line copy readLine pays for payloads that escape.
func (r *Reader) readLineInline() ([]byte, error) {
	frag, err := r.br.ReadSlice('\n')
	if err == nil {
		// Fast path: the whole line sat in one buffer fill (the buffer is
		// smaller than MaxLineLen, so no length check is needed here).
		if len(frag) < 2 || frag[len(frag)-2] != '\r' {
			return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
		}
		return frag[: len(frag)-2 : len(frag)-2], nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	// Slow path: accumulate buffer-sized fragments so an unterminated line
	// fails at MaxLineLen instead of growing memory for as long as the
	// peer streams.
	line := append([]byte(nil), frag...)
	for {
		if len(line) > MaxLineLen {
			return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, MaxLineLen)
		}
		frag, err = r.br.ReadSlice('\n')
		line = append(line, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
	if len(line) > MaxLineLen+2 {
		return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, MaxLineLen)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

func (r *Reader) readInt() (int64, error) {
	line, err := r.readLineInline()
	if err != nil {
		return 0, err
	}
	n, ok := parseInt(line)
	if !ok {
		return 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
	}
	return n, nil
}

// Writer encodes RESP values onto a stream with an internal buffer; call
// Flush after writing a batch (pipelining-friendly).
type Writer struct {
	bw *bufio.Writer
	// scratch is the reusable buffer integer headers are formatted into,
	// so the hot encode path allocates nothing per value.
	scratch [24]byte
}

// NewWriter wraps w in a buffered RESP encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16*1024)}
}

// writeHeader emits one type byte, a decimal integer, and CRLF — the shape
// of every RESP length/integer header — via the scratch buffer.
func (w *Writer) writeHeader(t byte, n int64) error {
	buf := append(w.scratch[:0], t)
	buf = strconv.AppendInt(buf, n, 10)
	buf = append(buf, '\r', '\n')
	_, err := w.bw.Write(buf)
	return err
}

// WriteValue encodes v. The data is buffered until Flush.
func (w *Writer) WriteValue(v Value) error {
	switch v.Type {
	case SimpleString, Error:
		if err := w.bw.WriteByte(byte(v.Type)); err != nil {
			return err
		}
		if _, err := w.bw.Write(v.Str); err != nil {
			return err
		}
		return w.crlf()
	case Integer:
		return w.writeHeader(':', v.Int)
	case BulkString:
		if v.Null {
			_, err := w.bw.WriteString("$-1\r\n")
			return err
		}
		return w.WriteBulk(v.Str)
	case Array:
		if v.Null {
			_, err := w.bw.WriteString("*-1\r\n")
			return err
		}
		if err := w.writeHeader('*', int64(len(v.Array))); err != nil {
			return err
		}
		for _, e := range v.Array {
			if err := w.WriteValue(e); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: cannot encode type %q", ErrProtocol, byte(v.Type))
	}
}

// WriteArrayHeader emits the header of an array; its n elements follow.
func (w *Writer) WriteArrayHeader(n int) error { return w.writeHeader('*', int64(n)) }

// WriteBulk emits one bulk string: length header, payload, CRLF.
func (w *Writer) WriteBulk(b []byte) error {
	if err := w.writeHeader('$', int64(len(b))); err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	return w.crlf()
}

// WriteCommand encodes a command as an array of bulk strings and buffers
// it, writing each argument directly — no intermediate Value tree.
func (w *Writer) WriteCommand(args ...string) error {
	if err := w.writeHeader('*', int64(len(args))); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulkString(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteBulkString is WriteBulk for a string payload.
func (w *Writer) WriteBulkString(s string) error {
	if err := w.writeHeader('$', int64(len(s))); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(s); err != nil {
		return err
	}
	return w.crlf()
}

// WriteCommandBytes encodes a command from raw byte arguments: the
// client's hot path. One call writes the whole multibulk — array header
// plus one bulk string per argument — straight into the buffer, avoiding
// the per-argument Value boxing WriteValue(ArrayValue(...)) would pay.
func (w *Writer) WriteCommandBytes(args [][]byte) error {
	if err := w.writeHeader('*', int64(len(args))); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulk(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteRecord encodes a journal record, its name then its arguments, as
// one array of bulk strings: the format of the AOF, of backup generations
// and of the replication stream. Like WriteCommandBytes it boxes nothing.
func (w *Writer) WriteRecord(name string, args [][]byte) error {
	if err := w.writeHeader('*', int64(len(args)+1)); err != nil {
		return err
	}
	if err := w.WriteBulkString(name); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulk(a); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) crlf() error {
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteRaw copies b, RESP already encoded, into the stream.
func (w *Writer) WriteRaw(b []byte) error {
	_, err := w.bw.Write(b)
	return err
}

// Flush writes all buffered data to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }
