package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"time"
)

// What earlier versions wrote, read and no longer written (DESIGN.md §17):
//
//	record = recordMarker uvarint(len(body)) body crc32c(body)
//	body   = uvarint(seq) int64be(UnixNano) outcome str(actor) str(op)
//	         str(key) str(owner) str(purpose) str(detail)
//	str    = uvarint(len) bytes
//	line   = one JSON object and '\n'
//
// A trail can hold all three kinds in turn, lines, then per-record frames,
// then claim frames, as a node is upgraded in place. decodeLegacy is the one
// way in to the first two.

// recordMarker opens a per-record frame. It is never '{' nor '\n'.
const recordMarker = 0xA1

// decodeLegacy decodes the per-record frame or the JSONL line at the start
// of b and returns its size; ok is false for an empty line. At the end of
// the file (eof) a last line needs no newline. With errCorrupt the size is
// how far the damaged entry reaches.
func decodeLegacy(b []byte, eof bool) (r Record, size int, ok bool, err error) {
	if len(b) > 0 && b[0] == recordMarker {
		var body []byte
		if body, size, err = splitFrame(b, recordMarker); err == nil {
			r, err = decodeRecordBody(body)
		}
		return r, size, err == nil, err
	}
	i := bytes.IndexByte(b, '\n')
	switch {
	case i >= 0:
		size = i + 1
	case !eof || len(b) == 0:
		return r, 0, false, errShort
	default:
		i, size = len(b), len(b)
	}
	if i == 0 {
		return r, size, false, nil
	}
	if json.Unmarshal(b[:i], &r) != nil {
		return r, size, false, errCorrupt
	}
	return r, size, true, nil
}

// decodeRecordBody decodes a per-record frame's body. It accepts exactly the
// bytes the per-record writer wrote for the record it returns.
func decodeRecordBody(b []byte) (Record, error) {
	d := bodyReader{b: b}
	r := Record{Seq: d.uvarint()}
	if t := d.bytes(8); d.err == nil {
		if ns := int64(binary.BigEndian.Uint64(t)); ns != zeroTime {
			r.Time = time.Unix(0, ns).UTC()
		}
	}
	r.Outcome = d.outcome()
	r.Actor, r.Op, r.Key = d.str(), d.str(), d.str()
	r.Owner, r.Purpose, r.Detail = d.str(), d.str(), d.str()
	if d.err != nil || len(d.b) != 0 {
		return Record{}, errCorrupt
	}
	return r, nil
}
