package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// The trail file is a sequence of entries of two kinds, told apart by their
// first byte (DESIGN.md §17):
//
//	frame  = frameMarker uvarint(len(body)) body crc32c(body)
//	body   = uvarint(seq) int64be(UnixNano) outcome str(actor) str(op)
//	         str(key) str(owner) str(purpose) str(detail)
//	str    = uvarint(len) bytes
//	legacy = one JSON object and '\n', as written before frames existed
//
// Writers emit frames only. A node upgraded in place appends frames to the
// JSONL file it finds, so every reader accepts both. The marker, the length
// and the checksum are what lets a reader that starts at an arbitrary
// offset (RecoverLastSeq) find the next whole record, and what tells a torn
// or damaged record from a good one.
const (
	// frameMarker is never '{' nor '\n', and doubles as the format version.
	frameMarker = 0xA1
	// maxFrame bounds a frame's body, as the line scanner bounded a JSONL
	// line: a longer claim is damage, not a record to buffer.
	maxFrame = 1 << 22
	// zeroTime encodes time.Time{}, which has no UnixNano.
	zeroTime = math.MinInt64
	// outcomeOther precedes an Outcome outside the four the store emits,
	// spelled out as a str.
	outcomeOther = 0xFF
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	outcomes   = [...]Outcome{OutcomeOK, OutcomeDenied, OutcomeMissing, OutcomeError}

	// errShort reports an entry that runs past the end of the bytes given.
	errShort   = errors.New("audit: incomplete record")
	errCorrupt = errors.New("audit: corrupt record")
)

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRecord appends r as one frame. It allocates only to grow dst.
func appendRecord(dst []byte, r Record) []byte {
	// The body's length goes before it and is not known until it is
	// written: write the body after a one-byte hole, which fits any body
	// under 128 bytes, and move it when it turns out longer.
	start := len(dst)
	dst = append(dst, frameMarker, 0)
	dst = binary.AppendUvarint(dst, r.Seq)
	ns := int64(zeroTime)
	if !r.Time.IsZero() {
		ns = r.Time.UnixNano()
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(ns))
	code := byte(outcomeOther)
	for i, o := range outcomes {
		if r.Outcome == o {
			code = byte(i)
		}
	}
	dst = append(dst, code)
	if code == outcomeOther {
		dst = appendStr(dst, string(r.Outcome))
	}
	dst = appendStr(dst, r.Actor)
	dst = appendStr(dst, r.Op)
	dst = appendStr(dst, r.Key)
	dst = appendStr(dst, r.Owner)
	dst = appendStr(dst, r.Purpose)
	dst = appendStr(dst, r.Detail)

	body := start + 2
	n := len(dst) - body
	if n < 0x80 {
		dst[start+1] = byte(n)
	} else {
		var hdr [binary.MaxVarintLen64]byte
		h := binary.PutUvarint(hdr[:], uint64(n))
		dst = append(dst, hdr[:h-1]...)
		copy(dst[body+h-1:], dst[body:body+n])
		copy(dst[start+1:], hdr[:h])
		body += h - 1
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[body:body+n], castagnoli))
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

// splitFrame checks the frame at the start of b (marker, length, checksum)
// and returns its body and its size. errShort means b ends inside it.
func splitFrame(b []byte) (body []byte, size int, err error) {
	if len(b) == 0 {
		return nil, 0, errShort
	}
	if b[0] != frameMarker {
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

// decodeBody is the inverse of appendRecord's body. It accepts exactly the
// bytes the encoder would write for the record it returns.
func decodeBody(b []byte) (Record, error) {
	var r Record
	seq, n, err := uvarint(b)
	if err != nil {
		return r, errCorrupt
	}
	r.Seq, b = seq, b[n:]
	if len(b) < 9 {
		return r, errCorrupt
	}
	if ns := int64(binary.BigEndian.Uint64(b)); ns != zeroTime {
		r.Time = time.Unix(0, ns).UTC()
	}
	code := b[8]
	b = b[9:]
	str := func() string {
		if err != nil {
			return ""
		}
		var l uint64
		if l, n, err = uvarint(b); err != nil || l > uint64(len(b)-n) {
			err = errCorrupt
			return ""
		}
		s := string(b[n : n+int(l)])
		b = b[n+int(l):]
		return s
	}
	switch {
	case int(code) < len(outcomes):
		r.Outcome = outcomes[code]
	case code == outcomeOther:
		r.Outcome = Outcome(str())
		for _, o := range outcomes {
			if r.Outcome == o {
				err = errCorrupt // has a one-byte spelling
			}
		}
	default:
		return r, errCorrupt
	}
	r.Actor, r.Op, r.Key = str(), str(), str()
	r.Owner, r.Purpose, r.Detail = str(), str(), str()
	if err != nil || len(b) != 0 {
		return r, errCorrupt
	}
	return r, nil
}

// decodeRecord decodes the frame at the start of b and returns its size.
func decodeRecord(b []byte) (Record, int, error) {
	body, size, err := splitFrame(b)
	if err != nil {
		return Record{}, size, err
	}
	r, err := decodeBody(body)
	return r, size, err
}

// splitLine returns the legacy line at the start of b and its size with the
// newline. At the end of the file (eof) a last line needs no newline.
func splitLine(b []byte, eof bool) (line []byte, size int, err error) {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], i + 1, nil
	}
	if !eof || len(b) == 0 {
		return nil, 0, errShort
	}
	return b, len(b), nil
}

// decodeEntry decodes the entry at the start of b, frame or legacy line,
// and returns its size; ok is false for an empty line. With errCorrupt the
// size is how far the damaged entry reaches.
func decodeEntry(b []byte, eof bool) (r Record, size int, ok bool, err error) {
	if len(b) > 0 && b[0] == frameMarker {
		r, size, err = decodeRecord(b)
		return r, size, err == nil, err
	}
	line, size, err := splitLine(b, eof)
	if err != nil || len(line) == 0 {
		return r, size, false, err
	}
	if json.Unmarshal(line, &r) != nil {
		return r, size, false, errCorrupt
	}
	return r, size, true, nil
}

// lastSeq returns the highest sequence number among the whole entries of b,
// which holds the end of a trail file and starts at an entry boundary only
// if aligned. The order of the file promises nothing about which entry that
// is (DESIGN.md §17), so every entry is looked at. Bytes that belong to no
// whole entry — the cut record at the start of the window, a torn tail,
// damage — are stepped over one at a time until a frame's marker, length
// and checksum agree or a legacy line starts.
func lastSeq(b []byte, aligned bool) uint64 {
	var last uint64
	boundary := -1
	if aligned {
		boundary = 0
	}
	for p := 0; p < len(b); {
		var seq uint64
		size := 0
		switch {
		case b[p] == frameMarker:
			if body, n, err := splitFrame(b[p:]); err == nil {
				if seq, _, err = uvarint(body); err == nil {
					size = n
				}
			}
		case p == boundary || (p > 0 && b[p-1] == '\n'):
			// Only here can a legacy line start.
			if r, n, ok, err := decodeEntry(b[p:], true); err == nil {
				size = n
				if ok {
					seq = r.Seq
				}
			}
		}
		if size == 0 {
			p++
			continue
		}
		last = max(last, seq)
		p += size
		boundary = p
	}
	return last
}

// AppendJSON appends r as the JSON object encoding/json.Marshal writes for
// it, byte for byte: the form legacy trail files hold and the socket
// export's collector was promised.
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
