package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"gdprstore/internal/store"
)

// The metadata codec (DESIGN.md §17): one append-style binary form for the
// metadata the compliance layer's journal records carry (GREC; the previous
// release's GMETA too), behind a version byte that is never '{', the first
// byte of the JSON it replaced. It is the only form written and the only one
// read: a '{'-led payload is refused with ErrRetiredFormat.
//
//	metadata = metaV1 flags str(owner) list(purposes) list(objections)
//	           str(origin) list(sharedWith) [time(expiry)] str(location)
//	           [time(created)] uvarint(keyEpoch)
//	str      = uvarint(len) bytes
//	list     = uvarint(count) str...
//	time     = int64be(UnixNano)
//
// A zero time is a cleared flag bit, not eight bytes; an empty list is one
// byte. Only an owner record fills objections; every other record writes
// the list empty.
const (
	metaV1 = 0x01

	metaAutomated  = 1 << 0
	metaHasExpiry  = 1 << 1
	metaHasCreated = 1 << 2
)

var errCodec = errors.New("malformed binary metadata")

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendList(dst []byte, l []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	for _, s := range l {
		dst = appendStr(dst, s)
	}
	return dst
}

// unixNano is t.UnixNano() held to the range an int64 of nanoseconds has
// (years 1678 to 2262): a retention deadline beyond it means "never" either
// way, and must not wrap around into the past.
func unixNano(t time.Time) int64 {
	switch {
	case t.After(maxNanoTime):
		return math.MaxInt64
	case t.Before(minNanoTime):
		return math.MinInt64
	}
	return t.UnixNano()
}

var (
	maxNanoTime = time.Unix(0, math.MaxInt64)
	minNanoTime = time.Unix(0, math.MinInt64)
)

// canonicalTime is t as it comes back from the codec: the same instant (held
// to the codec's range), in UTC, without a monotonic reading. Put stores the
// deadline it journals in this form, so the live engine and a replay agree
// on it to the nanosecond.
func canonicalTime(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	return time.Unix(0, unixNano(t)).UTC()
}

// encodeMetadata returns the binary form of rec's metadata under deadline
// (zero: none) in a buffer of its own, sized so that the usual record (an
// owner, a purpose or two, a region) needs no second allocation.
func encodeMetadata(rec *store.Record, deadline time.Time) []byte {
	m := metadataOf(rec, deadline)
	return appendMetadata(make([]byte, 0, 128), &m)
}

// appendMetadata appends m's binary form.
func appendMetadata(dst []byte, m *Metadata) []byte {
	flags := byte(0)
	if m.AutomatedDecisions {
		flags |= metaAutomated
	}
	if !m.Expiry.IsZero() {
		flags |= metaHasExpiry
	}
	if !m.Created.IsZero() {
		flags |= metaHasCreated
	}
	dst = append(dst, metaV1, flags)
	dst = appendStr(dst, m.Owner)
	dst = appendList(dst, m.Purposes)
	dst = appendList(dst, m.Objections)
	dst = appendStr(dst, m.Origin)
	dst = appendList(dst, m.SharedWith)
	if flags&metaHasExpiry != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(unixNano(m.Expiry)))
	}
	dst = appendStr(dst, m.Location)
	if flags&metaHasCreated != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(unixNano(m.Created)))
	}
	return binary.AppendUvarint(dst, m.KeyEpoch)
}

// decoder reads the binary form off the front of b. The first malformed
// field sets err and every later read returns a zero value, so callers
// check once at the end. It accepts only what the encoder writes (minimal
// varints, no unknown flag), and a length is checked against the bytes that
// are really there before anything is allocated for it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() { d.err, d.b = errCodec, nil }

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) i64() int64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return int64(v)
}

// bytes returns the next length-prefixed field, aliasing the input.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) list() []string {
	n := d.uvarint()
	if n > uint64(len(d.b)) { // every element takes a byte at least
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	l := make([]string, n)
	for i := range l {
		l[i] = string(d.bytes())
	}
	return l
}

// decodeMetadata decodes a journal record's binary metadata payload.
func decodeMetadata(b []byte) (Metadata, error) {
	if len(b) > 0 && b[0] == '{' {
		return Metadata{}, fmt.Errorf("%w: JSON metadata", ErrRetiredFormat)
	}
	var m Metadata
	d := decoder{b: b}
	if d.u8() != metaV1 {
		d.fail()
	}
	flags := d.u8()
	if flags&^(metaAutomated|metaHasExpiry|metaHasCreated) != 0 {
		d.fail()
	}
	m.AutomatedDecisions = flags&metaAutomated != 0
	m.Owner = string(d.bytes())
	m.Purposes = d.list()
	m.Objections = d.list()
	m.Origin = string(d.bytes())
	m.SharedWith = d.list()
	if flags&metaHasExpiry != 0 {
		m.Expiry = time.Unix(0, d.i64()).UTC()
	}
	m.Location = string(d.bytes())
	if flags&metaHasCreated != 0 {
		m.Created = time.Unix(0, d.i64()).UTC()
	}
	m.KeyEpoch = d.uvarint()
	if d.err != nil || len(d.b) != 0 {
		return Metadata{}, fmt.Errorf("core: decode metadata: %w", errCodec)
	}
	return m, nil
}
