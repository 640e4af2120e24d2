package audit

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"strconv"
	"time"
	"unicode/utf8"
)

// The trail file is a sequence of entries (DESIGN.md §17). This version
// writes one kind, a claim frame: the records of one drainer claim, which
// Sink.Write already takes all or none.
//
//	frame  = claimMarker uvarint(len(body)) body crc32c(body)
//	body   = uvarint(count) uvarint(seq) int64be(UnixNano) first rest*
//	first  = outcome same str*
//	rest   = uvarint(seq-prev-1) varint(UnixNano-prev) outcome same str*
//	str    = uvarint(len) bytes
//
// The six fields are actor, op, key, owner, purpose and detail. Bit i of
// the byte same is set when field i equals the previous record's (the
// first record's is compared with the empty string), and only the fields
// whose bit is clear follow, in order: the strings consecutive records
// repeat cost a bit each. A frame carries nothing over from earlier
// frames, so a reader that starts anywhere resyncs on marker, length and
// checksum. A trail an earlier release began, in JSONL lines or
// per-record frames, is refused at open (ErrRetiredFormat).
const (
	// claimMarker is never '{' nor '\n', nor the per-record frame's 0xA1,
	// and doubles as the format version.
	claimMarker = 0xA2
	// maxFrame bounds a frame's body: a longer claim is damage, not a
	// record to buffer. The encoder splits a claim that would pass it.
	maxFrame = 1 << 22
	// zeroTime encodes time.Time{}, which has no UnixNano.
	zeroTime = math.MinInt64
	// outcomeOther precedes an Outcome outside the four the store emits,
	// spelled out as uvarint(len) bytes.
	outcomeOther = 0xFF
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	outcomes   = [...]Outcome{OutcomeOK, OutcomeDenied, OutcomeMissing, OutcomeError}

	// errShort reports an entry that runs past the end of the bytes given.
	errShort   = errors.New("audit: incomplete record")
	errCorrupt = errors.New("audit: corrupt record")

	// ErrRetiredFormat reports a trail file an earlier release began, in
	// JSONL lines or per-record frames, which this one no longer reads
	// (DESIGN.md §17). The error wrapping it names the file and the
	// upgrade step.
	ErrRetiredFormat = errors.New("audit: retired trail format")
)

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return zeroTime
	}
	return t.UnixNano()
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendOutcome appends o's one-byte code, spelled out after outcomeOther
// when it is none of the four.
func appendOutcome(dst []byte, o Outcome) []byte {
	for i, known := range outcomes {
		if o == known {
			return append(dst, byte(i))
		}
	}
	return appendStr(append(dst, outcomeOther), string(o))
}

// claimEncoder writes claims as frames. Its body buffer is reused from
// claim to claim, so the drainer encodes without allocating once it has
// grown.
type claimEncoder struct {
	body []byte // one frame's records, after its header
}

// fields lists r's six strings in the order a record stores them.
func fields(r *Record) [6]string {
	return [6]string{r.Actor, r.Op, r.Key, r.Owner, r.Purpose, r.Detail}
}

// appendClaim appends recs to dst as one claim frame, or as several when
// one body would pass maxFrame.
func (e *claimEncoder) appendClaim(dst []byte, recs []Record) []byte {
	for len(recs) > 0 {
		var n int
		dst, n = e.appendFrame(dst, recs)
		recs = recs[n:]
	}
	return dst
}

// appendFrame appends the longest prefix of recs, at least one record,
// whose body stays within maxFrame as one frame, and returns its length.
func (e *claimEncoder) appendFrame(dst []byte, recs []Record) ([]byte, int) {
	e.body = e.body[:0]
	seq0, ns0 := recs[0].Seq, unixNano(recs[0].Time)
	n, prevSeq, prevNs := 0, seq0, ns0
	var prev [6]string // what the first record's fields are compared with
	for i := range recs {
		r := &recs[i]
		mark := len(e.body)
		ns := unixNano(r.Time)
		if i > 0 {
			// Wrapping arithmetic: any sequence and any times round-trip.
			e.body = binary.AppendUvarint(e.body, r.Seq-prevSeq-1)
			e.body = binary.AppendVarint(e.body, ns-prevNs)
		}
		e.body = appendOutcome(e.body, r.Outcome)
		cur := fields(r)
		var same byte
		for f := range cur {
			if cur[f] == prev[f] {
				same |= 1 << f
			}
		}
		e.body = append(e.body, same)
		for f := range cur {
			if same&(1<<f) == 0 {
				e.body = appendStr(e.body, cur[f])
			}
		}
		if i > 0 && uvarintLen(uint64(i+1))+uvarintLen(seq0)+8+len(e.body) > maxFrame {
			e.body = e.body[:mark]
			break
		}
		n, prevSeq, prevNs, prev = i+1, r.Seq, ns, cur
	}
	h := uvarintLen(uint64(n)) + uvarintLen(seq0) + 8
	dst = binary.AppendUvarint(append(dst, claimMarker), uint64(h+len(e.body)))
	body := len(dst)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, seq0)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ns0))
	dst = append(dst, e.body...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[body:], castagnoli)), n
}

// uvarint reads a minimally encoded uvarint: the encoder writes no other,
// and accepting one would give two byte strings for one record.
func uvarint(b []byte) (v uint64, n int, err error) {
	v, n = binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, errShort
	case n < 0 || (n > 1 && b[n-1] == 0):
		return 0, 0, errCorrupt
	}
	return v, n, nil
}

// splitFrame checks the claim frame at the start of b (marker, length,
// checksum) and returns its body and its size. errShort means b ends
// inside it.
func splitFrame(b []byte) (body []byte, size int, err error) {
	if len(b) == 0 {
		return nil, 0, errShort
	}
	if b[0] != claimMarker {
		return nil, 0, errCorrupt
	}
	n, h, err := uvarint(b[1:])
	if err != nil {
		return nil, 0, err
	}
	if n > maxFrame {
		return nil, 0, errCorrupt
	}
	size = 1 + h + int(n) + 4
	if len(b) < size {
		return nil, size, errShort
	}
	body = b[1+h : size-4]
	if binary.BigEndian.Uint32(b[size-4:]) != crc32.Checksum(body, castagnoli) {
		return nil, size, errCorrupt
	}
	return body, size, nil
}

// bodyReader takes a frame body apart. The first error sticks, and every
// read after it returns a zero value.
type bodyReader struct {
	b   []byte
	err error
}

func (d *bodyReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n, err := uvarint(d.b)
	if err != nil {
		d.err = errCorrupt
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes returns the next n bytes.
func (d *bodyReader) bytes(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errCorrupt
	}
	if d.err != nil {
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *bodyReader) str() string { return string(d.bytes(d.uvarint())) }

// outcome is the inverse of appendOutcome.
func (d *bodyReader) outcome() Outcome {
	code := d.bytes(1)
	switch {
	case code == nil:
		return ""
	case int(code[0]) < len(outcomes):
		return outcomes[code[0]]
	case code[0] != outcomeOther:
		d.err = errCorrupt
		return ""
	}
	o := Outcome(d.str())
	for _, known := range outcomes {
		if o == known {
			d.err = errCorrupt // has a one-byte spelling
		}
	}
	return o
}

// decodeClaim appends the records of the claim frame body b to recs. It
// accepts exactly the bytes appendFrame writes for the records it returns,
// and returns recs unchanged with any error: a claim reads whole or not at
// all.
func decodeClaim(recs []Record, b []byte) ([]Record, error) {
	d := bodyReader{b: b}
	count := d.uvarint()
	seq := d.uvarint()
	var ns int64
	if t := d.bytes(8); d.err == nil {
		ns = int64(binary.BigEndian.Uint64(t))
	}
	if count == 0 {
		d.err = errCorrupt
	}
	start := len(recs)
	var prev [6]string
	for i := uint64(0); i < count && d.err == nil; i++ {
		if i > 0 {
			seq += d.uvarint() + 1
			z := d.uvarint()
			ns += int64(z>>1) ^ -int64(z&1)
		}
		r := Record{Seq: seq, Outcome: d.outcome()}
		if ns != zeroTime {
			r.Time = time.Unix(0, ns).UTC()
		}
		var same byte
		if m := d.bytes(1); m != nil {
			same = m[0]
		}
		if same >= 1<<len(prev) {
			d.err = errCorrupt
		}
		for f := range prev {
			if same&(1<<f) == 0 {
				s := d.bytes(d.uvarint())
				if d.err == nil && string(s) == prev[f] {
					d.err = errCorrupt // the encoder would have set its bit
				}
				prev[f] = string(s)
			}
		}
		r.Actor, r.Op, r.Key = prev[0], prev[1], prev[2]
		r.Owner, r.Purpose, r.Detail = prev[3], prev[4], prev[5]
		recs = append(recs, r)
	}
	if d.err != nil || len(d.b) != 0 {
		return recs[:start], errCorrupt
	}
	return recs, nil
}

// decodeEntry decodes the claim frame at the start of b, appends its
// records to recs and returns its size. With errCorrupt the size is how far
// the damaged frame reaches; with any error recs comes back unchanged.
func decodeEntry(recs []Record, b []byte) ([]Record, int, error) {
	body, size, err := splitFrame(b)
	if err == nil {
		recs, err = decodeClaim(recs, body)
	}
	return recs, size, err
}

// lastSeq returns the highest sequence number among the whole frames of b,
// which holds the end of a trail file and may start inside a frame. Bytes
// that belong to no whole frame — the cut frame at the start of the window,
// a torn tail, damage — are stepped over one at a time until a frame's
// marker, length and checksum agree.
func lastSeq(b []byte) uint64 {
	var last uint64
	var recs []Record
	for p := 0; p < len(b); p++ {
		var size int
		var err error
		if recs, size, err = decodeEntry(recs[:0], b[p:]); err != nil {
			continue
		}
		for _, r := range recs {
			last = max(last, r.Seq)
		}
		p += size - 1
	}
	return last
}

// AppendJSON appends r as the JSON object encoding/json.Marshal writes for
// it, byte for byte: the form the socket export's collector was promised
// (and the lines of the earliest trail files).
func (r Record) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"time":"`...)
	dst = r.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","actor":`...)
	dst = appendJSONString(dst, r.Actor)
	dst = append(dst, `,"op":`...)
	dst = appendJSONString(dst, r.Op)
	dst = appendOptional(dst, `,"key":`, r.Key)
	dst = appendOptional(dst, `,"owner":`, r.Owner)
	dst = appendOptional(dst, `,"purpose":`, r.Purpose)
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, string(r.Outcome))
	dst = appendOptional(dst, `,"detail":`, r.Detail)
	return append(dst, '}')
}

func appendOptional(dst []byte, name, v string) []byte {
	if v == "" {
		return dst
	}
	return appendJSONString(append(dst, name...), v)
}

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// short escapes for the five control characters that have one, \u00XX for
// the other control characters and for <, > and &, \ufffd for invalid
// UTF-8, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
