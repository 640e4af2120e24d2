package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// sampleRecords covers what the quick generator rarely hits: every field
// empty, a zero time, an outcome outside the four constants, '\n' and '{'
// where a line reader or a format sniffer would trip, the marker byte,
// strings long enough for two- and three-byte lengths.
func sampleRecords() []Record {
	at := time.Date(2026, 9, 25, 15, 30, 13, 547276659, time.UTC)
	return []Record{
		{},
		{Seq: 1, Time: at, Actor: "controller", Op: "PUT", Key: "pd:alice:1", Owner: "alice", Purpose: "billing", Outcome: OutcomeOK},
		{Seq: 1 << 40, Time: time.Unix(0, 0).UTC(), Op: "GET", Outcome: OutcomeMissing},
		{Seq: ^uint64(0), Time: at, Actor: "a", Op: "X", Outcome: "partial", Detail: "custom outcome"},
		{Seq: 7, Time: at, Op: "GET", Key: "\n{\"seq\":99}\n", Owner: "{", Purpose: "\n", Outcome: OutcomeDenied, Detail: string([]byte{frameMarker, 0, frameMarker})},
		{Seq: 8, Time: at, Op: "PUT", Key: strings.Repeat("k", 127), Owner: strings.Repeat("o", 128), Detail: strings.Repeat("d", 70_000), Outcome: OutcomeError},
		{Seq: 9, Time: at, Op: "PUT", Key: "<&>\u2028\u2029\x00\b\f\t\r\\\"\x7f\xff\xc3é", Outcome: OutcomeOK},
	}
}

func TestAuditRecordRoundTrip(t *testing.T) {
	check := func(r Record) error {
		enc := appendRecord([]byte("prefix"), r)[len("prefix"):]
		got, size, err := decodeRecord(enc)
		if err != nil || size != len(enc) {
			return fmt.Errorf("decode: size %d of %d, %v", size, len(enc), err)
		}
		if !reflect.DeepEqual(got, r) {
			return fmt.Errorf("got %+v, want %+v", got, r)
		}
		if enc[0] == '{' || enc[0] == '\n' {
			return fmt.Errorf("frame starts like a legacy line: %#x", enc[0])
		}
		return nil
	}
	for i, r := range sampleRecords() {
		if err := check(r); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	f := func(seq uint64, ns int64, actor, op, key, owner, purpose, outcome, detail string) bool {
		r := Record{Seq: seq, Actor: actor, Op: op, Key: key, Owner: owner,
			Purpose: purpose, Outcome: Outcome(outcome), Detail: detail}
		if ns != zeroTime {
			r.Time = time.Unix(0, ns).UTC()
		}
		return check(r) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendJSONMatchesEncodingJSON is the golden test of the hand-written
// JSON form: byte-identical to what json.Marshal, the parent's encoder,
// writes for the same record.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	check := func(r Record) bool {
		want, err := json.Marshal(r)
		if err != nil {
			return true // encoding/json refuses it (year out of range)
		}
		got := r.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Logf("got  %s\nwant %s", got, want)
		}
		return bytes.Equal(got, want)
	}
	for i, r := range sampleRecords() {
		if !check(r) {
			t.Fatalf("sample %d differs", i)
		}
	}
	local := time.FixedZone("", 2*3600)
	if !check(Record{Seq: 3, Time: time.Date(2026, 1, 2, 3, 4, 5, 600, local), Op: "GET", Outcome: OutcomeOK}) {
		t.Fatal("non-UTC time differs")
	}
	f := func(seq uint64, sec int64, actor, op, key, owner, purpose, outcome, detail string, raw []byte) bool {
		r := Record{Seq: seq, Time: time.Unix(sec%4e9, sec%1e9).UTC(), Actor: actor, Op: op, Key: key + string(raw),
			Owner: owner, Purpose: purpose, Outcome: Outcome(outcome), Detail: detail}
		return check(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// legacyTrail is a JSONL trail written by the parent commit's two audit
// workers (testdata of internal/core has the generator): 40 records whose
// last stretch is out of sequence order, and whose last line is not the
// highest number.
const legacyTrail = "testdata/legacy-trail.jsonl"

func TestAppendJSONEqualsParentLines(t *testing.T) {
	raw, err := os.ReadFile(legacyTrail)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	i := 0
	if err := scanFile(legacyTrail, nil, func(r Record) error {
		if got := r.AppendJSON(nil); !bytes.Equal(got, lines[i]) {
			t.Errorf("line %d:\ngot  %s\nwant %s", i, got, lines[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(lines) || i != 40 {
		t.Fatalf("scanned %d records of %d lines", i, len(lines))
	}
}

// TestLegacyTrailContinuesInFrames is the in-place upgrade: the trail finds
// a JSONL file, recovers its numbering, appends frames after the lines, and
// every reader sees one trail.
func TestLegacyTrailContinuesInFrames(t *testing.T) {
	raw, err := os.ReadFile(legacyTrail)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "audit.log")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if last, err := RecoverLastSeq(path, nil); err != nil || last != 40 {
		t.Fatalf("legacy last seq = %d, %v; want 40 (the last line holds 35)", last, err)
	}
	tr, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, err := tr.Append(Record{Actor: "controller", Op: "GET", Key: "pd:alice:1\n{", Owner: "alice", Outcome: OutcomeOK})
		if err != nil || r.Seq != uint64(41+i) {
			t.Fatalf("append %d: seq %d, %v", i, r.Seq, err)
		}
	}
	got, err := tr.Query(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 45 {
		t.Fatalf("query returned %d records, want 45", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("query out of order at %d: seq %d", i, r.Seq)
		}
	}
	if alice, _ := tr.Query(Filter{Owner: "alice", Op: "GET"}); len(alice) != 25+5 {
		t.Fatalf("filtered query over both formats = %d records, want 30", len(alice))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	mixed, _ := os.ReadFile(path)
	if !bytes.HasPrefix(mixed, raw) || mixed[len(raw)] != frameMarker {
		t.Fatal("frames were not appended after the legacy lines")
	}
	if bytes.Contains(mixed[len(raw):], []byte(`"seq"`)) {
		t.Fatal("the writer still emits JSON")
	}
	if last, err := RecoverLastSeq(path, nil); err != nil || last != 45 {
		t.Fatalf("mixed last seq = %d, %v; want 45", last, err)
	}
}

// TestRecoverLastSeqLargeTornTrail reads only the last megabyte of a larger
// frame trail: the window starts inside a record and ends in a torn one,
// and the highest number is not in the last whole record.
func TestRecoverLastSeqLargeTornTrail(t *testing.T) {
	at := time.Date(2026, 9, 25, 12, 0, 0, 0, time.UTC)
	var enc []byte
	rec := func(seq uint64) Record {
		return Record{Seq: seq, Time: at, Actor: "controller", Op: "GET",
			Key: fmt.Sprintf("pd:owner%05d:\n{%d", seq%977, seq), Owner: "owner", Purpose: "billing", Outcome: OutcomeOK}
	}
	const n = 20_000
	for seq := uint64(1); seq <= n; seq++ {
		if seq == n-70 {
			continue // written late, below
		}
		enc = appendRecord(enc, rec(seq))
	}
	enc = appendRecord(enc, rec(n-70))
	whole := len(enc)
	if whole <= recoverTailWindow+recoverTailWindow/4 {
		t.Fatalf("trail is %d bytes, want well over the %d-byte window", whole, recoverTailWindow)
	}
	enc = appendRecord(enc, rec(n+1))
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{9}, 32)} {
		for _, cut := range []int{len(enc) - 1, len(enc) - 4, whole + 2, whole + 1, whole} {
			path := filepath.Join(t.TempDir(), "audit.log")
			fs, err := NewFileSink(path, key)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Write(nil, enc[:cut]); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			last, err := RecoverLastSeq(path, key)
			if err != nil || last != n {
				t.Fatalf("cut %d of %d (key %v): last seq %d, %v; want %d", cut, len(enc), key != nil, last, err, n)
			}
			count := 0
			if err := scanFile(path, key, func(Record) error { count++; return nil }); err != nil || count != n {
				t.Fatalf("cut %d: scan saw %d records, %v; want %d and a tolerated torn tail", cut, count, err, n)
			}
		}
	}
}

// TestScanRejectsDamageBeforeTheTail pins the other half of the torn-tail
// rule: a record that fails its checksum with records after it is damage.
func TestScanRejectsDamageBeforeTheTail(t *testing.T) {
	var enc []byte
	for seq := uint64(1); seq <= 3; seq++ {
		enc = appendRecord(enc, Record{Seq: seq, Op: "GET", Key: "k", Outcome: OutcomeOK})
	}
	first := len(appendRecord(nil, Record{Seq: 1, Op: "GET", Key: "k", Outcome: OutcomeOK}))
	enc[first+5] ^= 0x40 // inside the second record
	path := filepath.Join(t.TempDir(), "audit.log")
	if err := os.WriteFile(path, enc, 0o600); err != nil {
		t.Fatal(err)
	}
	count := 0
	err := scanFile(path, nil, func(Record) error { count++; return nil })
	if err == nil || count != 1 {
		t.Fatalf("scan over a damaged middle record: %d records, err %v", count, err)
	}
	// The recovery of the numbering steps over it.
	if last, _ := RecoverLastSeq(path, nil); last != 3 {
		t.Fatalf("last seq past damage = %d, want 3", last)
	}
	// The same damage in the last record is a torn tail.
	if err := os.WriteFile(path, enc[:first], 0o600); err != nil {
		t.Fatal(err)
	}
	tail := appendRecord(nil, Record{Seq: 2, Op: "GET", Key: "k", Outcome: OutcomeOK})
	tail[5] ^= 0x40
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
	f.Write(tail)
	f.Close()
	count = 0
	if err := scanFile(path, nil, func(Record) error { count++; return nil }); err != nil || count != 1 {
		t.Fatalf("scan over a damaged last record: %d records, err %v", count, err)
	}
}

// TestEncodeBatchAllocs is the allocation budget of the drainer's encode
// step: a full claim into the buffer the drainer owns, nothing once the
// buffer has grown.
func TestEncodeBatchAllocs(t *testing.T) {
	recs := make([]Record, workerBatch)
	for i := range recs {
		recs[i] = Record{Seq: uint64(1000 + i), Time: time.Unix(1_700_000_000, int64(i)), Actor: "controller",
			Op: "PUT", Key: fmt.Sprintf("pd:owner%04d:%d", i, i), Owner: fmt.Sprintf("owner%04d", i),
			Purpose: "billing", Outcome: OutcomeOK, Detail: strings.Repeat("x", i*3)}
	}
	var enc []byte
	allocs := testing.AllocsPerRun(100, func() {
		enc = enc[:0]
		for _, r := range recs {
			enc = appendRecord(enc, r)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding a %d-record batch allocates %.0f times in steady state, want 0", workerBatch, allocs)
	}
}

func FuzzDecodeAuditRecord(f *testing.F) {
	for _, r := range sampleRecords()[:5] {
		f.Add(appendRecord(nil, r))
	}
	f.Add([]byte{frameMarker, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte(`{"seq":1,"time":"2026-09-25T12:00:00Z","actor":"a","op":"GET","outcome":"ok"}` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, size, err := decodeRecord(b)
		if err == nil {
			if size > len(b) {
				t.Fatalf("decoded %d bytes of %d", size, len(b))
			}
			if again := appendRecord(nil, r); !bytes.Equal(again, b[:size]) {
				t.Fatalf("accepted %x, re-encodes to %x", b[:size], again)
			}
		}
		// The readers built on it take anything too.
		lastSeq(b, true)
		lastSeq(b, false)
		for p := 0; p < len(b); {
			_, n, _, err := decodeEntry(b[p:], true)
			if err != nil || n == 0 {
				break
			}
			p += n
		}
	})
}

// TestLastSeqAnywhere starts the recovery window at every offset of a mixed
// trail: whatever it cuts, the answer is the highest number of the records
// that are whole inside it.
func TestLastSeqAnywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var file []byte
	type span struct {
		start, end int
		seq        uint64
	}
	var spans []span
	add := func(b []byte, seq uint64) {
		spans = append(spans, span{len(file), len(file) + len(b), seq})
		file = append(file, b...)
	}
	for i := 0; i < 12; i++ {
		r := Record{Seq: uint64(100 - i), Op: "GET", Key: "caf\xc2\xa1\n{", Outcome: OutcomeOK}
		add(append(r.AppendJSON(nil), '\n'), r.Seq)
	}
	for i := 0; i < 40; i++ {
		r := Record{Seq: uint64(200 + rng.Intn(1000)), Time: time.Unix(int64(i), 10), Op: "PUT",
			Key: string([]byte{frameMarker, '\n', '{', byte(i)}), Owner: strings.Repeat("o", rng.Intn(200)), Outcome: OutcomeOK}
		add(appendRecord(nil, r), r.Seq)
	}
	for off := 0; off <= len(file); off++ {
		var want uint64
		for _, s := range spans {
			if s.start >= off {
				want = max(want, s.seq)
			}
		}
		if got := lastSeq(file[off:], off == 0); got != want {
			t.Fatalf("window at %d: last seq %d, want %d", off, got, want)
		}
	}
}
