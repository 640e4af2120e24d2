package audit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gdprstore/internal/aof"
)

// sampleRecords covers what the quick generator rarely hits: every field
// empty, a zero time, an outcome outside the four constants, '\n' and '{'
// where a line reader or a format sniffer would trip, the marker bytes,
// strings long enough for two- and three-byte lengths.
func sampleRecords() []Record {
	at := time.Date(2026, 9, 25, 15, 30, 13, 547276659, time.UTC)
	return []Record{
		{},
		{Seq: 1, Time: at, Actor: "controller", Op: "PUT", Key: "pd:alice:1", Owner: "alice", Purpose: "billing", Outcome: OutcomeOK},
		{Seq: 1 << 40, Time: time.Unix(0, 0).UTC(), Op: "GET", Outcome: OutcomeMissing},
		{Seq: ^uint64(0), Time: at, Actor: "a", Op: "X", Outcome: "partial", Detail: "custom outcome"},
		{Seq: 7, Time: at, Op: "GET", Key: "\n{\"seq\":99}\n", Owner: "{", Purpose: "\n", Outcome: OutcomeDenied, Detail: string([]byte{0xA1, 0, claimMarker})},
		{Seq: 8, Time: at, Op: "PUT", Key: strings.Repeat("k", 127), Owner: strings.Repeat("o", 128), Detail: strings.Repeat("d", 70_000), Outcome: OutcomeError},
		{Seq: 9, Time: at, Op: "PUT", Key: "<&>\u2028\u2029\x00\b\f\t\r\\\"\x7f\xff\xc3é", Outcome: OutcomeOK},
	}
}

// appendClaim appends recs as the drainer writes one claim.
func appendClaim(dst []byte, recs ...Record) []byte {
	return new(claimEncoder).appendClaim(dst, recs)
}

// decodeAll decodes every entry of b, which must be whole.
func decodeAll(b []byte) ([]Record, error) {
	var recs []Record
	for p := 0; p < len(b); {
		var size int
		var err error
		if recs, size, err = decodeEntry(recs, b[p:]); err != nil {
			return recs, fmt.Errorf("entry at %d: %w", p, err)
		}
		p += size
	}
	return recs, nil
}

// TestAuditRecordRoundTrip: one record, in a claim frame of its own,
// decodes to itself.
func TestAuditRecordRoundTrip(t *testing.T) {
	check := func(r Record) error {
		got, err := decodeAll(appendClaim(nil, r))
		if err != nil || len(got) != 1 {
			return fmt.Errorf("decode: %d records, %v", len(got), err)
		}
		if !reflect.DeepEqual(got[0], r) {
			return fmt.Errorf("got %+v, want %+v", got[0], r)
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

// TestClaimRoundTrip: a claim decodes to its records field for field,
// whatever the drainer hands the encoder: the gaps Drop leaves, a zero
// time, a wall clock that steps back, an outcome outside the four, fields
// that change from record to record and come back, numbers out of order,
// and a claim whose body passes maxFrame, which goes out as several frames.
func TestClaimRoundTrip(t *testing.T) {
	at := time.Date(2026, 10, 16, 8, 0, 0, 123, time.UTC)
	get := func(seq uint64, ts time.Time) Record {
		return Record{Seq: seq, Time: ts, Actor: "bench-controller", Op: "GET", Key: fmt.Sprintf("k%07d", seq),
			Owner: "u00017", Purpose: "service", Outcome: OutcomeOK}
	}
	var varied, huge []Record
	for i := 0; i < 100; i++ {
		r := get(uint64(i+1), at)
		r.Actor, r.Owner = fmt.Sprintf("a%d", i%2), fmt.Sprintf("u%d", i/3)
		r.Purpose, r.Detail = fmt.Sprintf("p%d", i%3), fmt.Sprintf("d%d", i%80/7)
		if i%5 == 0 {
			r.Owner, r.Purpose = "", ""
		}
		varied = append(varied, r)
	}
	for i := 0; i < workerBatch; i++ {
		r := get(uint64(i+1), at.Add(time.Duration(i)))
		r.Detail = strings.Repeat(string(rune('a'+i%26)), 100_000) + fmt.Sprint(i)
		huge = append(huge, r)
	}
	cases := []struct {
		name   string
		recs   []Record
		frames int
	}{
		{"samples", sampleRecords(), 1},
		{"drop gap", []Record{get(10, at), get(11, at.Add(time.Microsecond)), get(15, at.Add(2*time.Microsecond)), get(16, at.Add(3*time.Microsecond))}, 1},
		{"zero time", []Record{get(1, at), get(2, time.Time{}), get(3, at), {Seq: 4}}, 1},
		{"clock steps back", []Record{get(1, at), get(2, at.Add(-time.Hour)), get(3, at.Add(-time.Hour+1)), get(4, at.Add(-2))}, 1},
		{"outcome other", []Record{get(1, at), {Seq: 2, Time: at, Op: "X", Outcome: "partial"}, {Seq: 3, Time: at, Op: "partial", Outcome: "partial", Detail: "ok"}}, 1},
		{"numbers out of order", []Record{get(9, at), get(9, at), get(3, at), get(^uint64(0), at), get(0, at)}, 1},
		{"fields vary", varied, 1},
		{"past maxFrame", huge, 2},
	}
	for _, c := range cases {
		enc := appendClaim(nil, c.recs...)
		got, err := decodeAll(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.recs) {
			t.Fatalf("%s: records differ after the round trip", c.name)
		}
		frames := 0
		for p := 0; p < len(enc); frames++ {
			_, size, err := splitFrame(enc[p:])
			if err != nil {
				t.Fatalf("%s: frame %d: %v", c.name, frames, err)
			}
			p += size
		}
		if frames != c.frames {
			t.Fatalf("%s: %d frames, want %d", c.name, frames, c.frames)
		}
	}
}

// TestClaimCutAnywhere is a crash at every byte of a trail of two claims:
// the file scans as its whole claims plus, at most, a torn tail, and a
// claim is never read as a prefix of its records.
func TestClaimCutAnywhere(t *testing.T) {
	at := time.Date(2026, 10, 16, 8, 0, 0, 0, time.UTC)
	var recs []Record
	for seq := uint64(1); seq <= 20; seq++ {
		recs = append(recs, Record{Seq: seq, Time: at.Add(time.Duration(seq) * time.Microsecond), Actor: "svc",
			Op: "GET", Key: fmt.Sprintf("pd:%d", seq), Owner: "alice", Outcome: OutcomeOK})
	}
	first := appendClaim(nil, recs[:10]...)
	file := appendClaim(bytes.Clone(first), recs[10:]...)
	path := filepath.Join(t.TempDir(), "audit.log")
	for cut := 0; cut <= len(file); cut++ {
		if err := os.WriteFile(path, file[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		var got []Record
		err := scanFile(path, nil, func(r Record) error { got = append(got, r); return nil })
		want := 0
		switch {
		case cut == len(file):
			want = 20
		case cut >= len(first):
			want = 10
		}
		if err != nil || !reflect.DeepEqual(append([]Record{}, got...), recs[:want]) {
			t.Fatalf("cut at %d of %d: %d records, %v; want the first %d", cut, len(file), len(got), err, want)
		}
		if last, err := RecoverLastSeq(path, nil); err != nil || last != uint64(want) {
			t.Fatalf("cut at %d: last seq %d, %v; want %d", cut, last, err, want)
		}
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

// legacyTrail is a JSONL trail written by an earlier release's two audit
// workers: 40 records, the lines the socket export still promises.
const legacyTrail = "testdata/legacy-trail.jsonl"

func TestAppendJSONEqualsParentLines(t *testing.T) {
	raw, err := os.ReadFile(legacyTrail)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 40 {
		t.Fatalf("fixture holds %d lines, want 40", len(lines))
	}
	for i, line := range lines {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got := r.AppendJSON(nil); !bytes.Equal(got, line) {
			t.Errorf("line %d:\ngot  %s\nwant %s", i, got, line)
		}
	}
}

// TestRetiredTrailRefused: a trail an earlier release began, in JSONL lines
// or in per-record frames (marker 0xA1), is refused at open with
// ErrRetiredFormat, the file left byte for byte as it was, plain or
// encrypted; one that starts with a claim frame opens.
func TestRetiredTrailRefused(t *testing.T) {
	lines, err := os.ReadFile(legacyTrail)
	if err != nil {
		t.Fatal(err)
	}
	claim := appendClaim(nil, sampleRecords()[1])
	perRecord := append([]byte{0xA1}, claim[1:]...) // what a per-record frame starts with
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{4}, 32)} {
		for name, raw := range map[string][]byte{"jsonl": lines, "per-record": perRecord} {
			path := filepath.Join(t.TempDir(), "audit.log")
			fs, err := NewFileSink(path, key, aof.SyncNo)
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(fs.Write(nil, raw), fs.Close()); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadFile(path)
			tr, err := Open(Options{Path: path, Key: key})
			if !errors.Is(err, ErrRetiredFormat) || tr != nil {
				t.Fatalf("%s (key %v): Open = %v, %v; want ErrRetiredFormat", name, key != nil, tr, err)
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "move the file aside") {
				t.Fatalf("%s: the refusal names neither the file nor the step: %v", name, err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
				t.Fatalf("%s: the refused trail changed", name)
			}
		}
		path := filepath.Join(t.TempDir(), "audit.log")
		fs, err := NewFileSink(path, key, aof.SyncNo)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(fs.Write(nil, claim), fs.Close()); err != nil {
			t.Fatal(err)
		}
		tr, err := Open(Options{Path: path, Key: key})
		if err != nil {
			t.Fatalf("a trail of claim frames is refused: %v", err)
		}
		if tr.Seq() != 1 {
			t.Fatalf("recovered seq %d, want 1", tr.Seq())
		}
		tr.Close()
	}
}

// TestRecoverLastSeqLargeTornTrail reads only the last megabyte of a larger
// trail of claim frames: the window starts inside a frame and ends in a
// torn one.
func TestRecoverLastSeqLargeTornTrail(t *testing.T) {
	at := time.Date(2026, 9, 25, 12, 0, 0, 0, time.UTC)
	rec := func(seq uint64) Record {
		return Record{Seq: seq, Time: at, Actor: "controller", Op: "GET",
			Key: fmt.Sprintf("pd:owner%05d:\n{%d", seq%977, seq), Owner: "owner", Purpose: "billing", Outcome: OutcomeOK}
	}
	const n = 50_000
	var enc []byte
	var whole int
	var e claimEncoder
	var recs []Record
	for seq := uint64(1); seq <= n+workerBatch; seq++ {
		recs = append(recs, rec(seq))
		if len(recs) == workerBatch || seq == n {
			whole = len(enc)
			enc, recs = e.appendClaim(enc, recs), recs[:0]
		}
	}
	if whole <= recoverTailWindow+recoverTailWindow/4 {
		t.Fatalf("trail is %d bytes, want well over the %d-byte window", whole, recoverTailWindow)
	}
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{9}, 32)} {
		for _, cut := range []int{len(enc) - 1, len(enc) - 4, whole + 2, whole + 1, whole} {
			path := filepath.Join(t.TempDir(), "audit.log")
			fs, err := NewFileSink(path, key, aof.SyncNo)
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
			if err := scanFile(path, key, func(Record) error { count++; return nil }); err != nil || count != int(n) {
				t.Fatalf("cut %d: scan saw %d records, %v; want %d and a tolerated torn tail", cut, count, err, n)
			}
		}
	}
}

// TestRecoverLastSeqWidensPastAHugeClaim: a claim of megabytes leaves the
// last megabyte without a whole entry, whole or torn; the recovery widens
// its window rather than restart the numbering.
func TestRecoverLastSeqWidensPastAHugeClaim(t *testing.T) {
	at := time.Date(2026, 10, 16, 8, 0, 0, 0, time.UTC)
	var huge []Record
	for i := 0; i < workerBatch; i++ {
		huge = append(huge, Record{Seq: uint64(11 + i), Time: at, Op: "PUT", Key: strings.Repeat("k", 40_000) + fmt.Sprint(i), Outcome: OutcomeOK})
	}
	small := appendClaim(nil, Record{Seq: 10, Time: at, Op: "GET", Outcome: OutcomeOK})
	file := appendClaim(bytes.Clone(small), huge...)
	if len(file) < 2*recoverTailWindow {
		t.Fatalf("the huge claim is %d bytes, want over twice the window", len(file))
	}
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{3}, 32)} {
		for _, c := range []struct {
			cut  int
			want uint64
		}{{len(file), 10 + workerBatch}, {len(file) - 1, 10}} {
			path := filepath.Join(t.TempDir(), "audit.log")
			fs, err := NewFileSink(path, key, aof.SyncNo)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Write(nil, file[:c.cut]); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if last, err := RecoverLastSeq(path, key); err != nil || last != c.want {
				t.Fatalf("cut %d of %d (key %v): last seq %d, %v; want %d", c.cut, len(file), key != nil, last, err, c.want)
			}
		}
	}
}

// TestScanRejectsDamageBeforeTheTail pins the other half of the torn-tail
// rule: a frame that fails its checksum with frames after it is damage.
func TestScanRejectsDamageBeforeTheTail(t *testing.T) {
	rec := func(seq uint64) Record { return Record{Seq: seq, Op: "GET", Key: "k", Outcome: OutcomeOK} }
	entry := func(i uint64) []byte { return appendClaim(nil, rec(2*i-1), rec(2*i)) }
	var enc []byte
	for i := uint64(1); i <= 3; i++ {
		enc = append(enc, entry(i)...)
	}
	first := len(entry(1))
	perEntry, _ := decodeAll(entry(1))
	highest, _ := decodeAll(entry(3))
	enc[first+5] ^= 0x40 // inside the second entry
	path := filepath.Join(t.TempDir(), "audit.log")
	if err := os.WriteFile(path, enc, 0o600); err != nil {
		t.Fatal(err)
	}
	count := 0
	err := scanFile(path, nil, func(Record) error { count++; return nil })
	if err == nil || count != len(perEntry) {
		t.Fatalf("scan over a damaged middle entry: %d records, err %v", count, err)
	}
	// The recovery of the numbering steps over it.
	if last, _ := RecoverLastSeq(path, nil); last != highest[len(highest)-1].Seq {
		t.Fatalf("last seq past damage = %d, want %d", last, highest[len(highest)-1].Seq)
	}
	// The same damage in the last entry is a torn tail.
	tail := entry(2)
	tail[5] ^= 0x40
	if err := os.WriteFile(path, append(enc[:first:first], tail...), 0o600); err != nil {
		t.Fatal(err)
	}
	count = 0
	if err := scanFile(path, nil, func(Record) error { count++; return nil }); err != nil || count != len(perEntry) {
		t.Fatalf("scan over a damaged last entry: %d records, err %v", count, err)
	}
}

// TestEncodeBatchAllocs is the allocation budget of the drainer's encode
// step: a full claim into the buffer the drainer owns, through the encoder
// whose body buffer it keeps, nothing once both have grown.
func TestEncodeBatchAllocs(t *testing.T) {
	recs := make([]Record, workerBatch)
	for i := range recs {
		recs[i] = Record{Seq: uint64(1000 + i), Time: time.Unix(1_700_000_000, int64(i)), Actor: "controller",
			Op: "PUT", Key: fmt.Sprintf("pd:owner%04d:%d", i, i), Owner: fmt.Sprintf("owner%04d", i),
			Purpose: "billing", Outcome: OutcomeOK, Detail: strings.Repeat("x", i*3)}
	}
	var e claimEncoder
	var enc []byte
	allocs := testing.AllocsPerRun(100, func() {
		enc = e.appendClaim(enc[:0], recs)
	})
	if allocs != 0 {
		t.Fatalf("encoding a %d-record claim allocates %.0f times in steady state, want 0", workerBatch, allocs)
	}
}

// TestClaimBytesPerRecord is the size budget below the benchmark: a claim
// shaped like wire-read's audited GGETs (one actor, op and purpose, zipfian
// 8-byte keys of 6-byte owners, a few microseconds apart) costs at most 28
// bytes a record, where the retired per-record frame cost 63.
func TestClaimBytesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	zipf := rand.NewZipf(rng, 1.1, 1, 49_999)
	at := time.Date(2026, 10, 16, 8, 0, 0, 0, time.UTC)
	recs := make([]Record, workerBatch)
	for i := range recs {
		at = at.Add(time.Duration(5_000 + rng.Intn(10_000)))
		k := zipf.Uint64()
		recs[i] = Record{Seq: uint64(1_000_000 + i), Time: at, Actor: "bench-controller", Op: "GET",
			Key: fmt.Sprintf("k%07d", k), Owner: fmt.Sprintf("u%05d", k%5_000), Purpose: "service", Outcome: OutcomeOK}
	}
	claim := float64(len(appendClaim(nil, recs...))) / workerBatch
	t.Logf("%.1f B per record in a claim frame", claim)
	if claim > 28 {
		t.Fatalf("a %d-record claim costs %.1f B per record, want <= 28", workerBatch, claim)
	}
}

// FuzzDecodeAuditFrame: every input the decoder accepts is a claim frame
// that re-encodes to the same bytes, so a claim has one spelling; a trail
// that starts like a JSONL line is refused as retired; and the readers
// built on the decoder take any input.
func FuzzDecodeAuditFrame(f *testing.F) {
	at := time.Date(2026, 10, 16, 8, 0, 0, 1, time.UTC)
	f.Add(appendClaim(nil, sampleRecords()[:5]...))
	f.Add(appendClaim(nil,
		Record{Seq: 7, Time: at, Actor: "svc", Op: "GET", Key: "k1", Owner: "alice", Purpose: "billing", Outcome: OutcomeOK},
		Record{Seq: 9, Time: at.Add(-time.Second), Actor: "svc", Op: "GET", Key: "k1", Owner: "alice", Purpose: "svc", Outcome: OutcomeDenied, Detail: "billing"},
		Record{Seq: 10, Op: "PUT", Outcome: "partial"}))
	f.Add([]byte(`{"seq":1,"time":"2026-09-25T12:00:00Z","actor":"a","op":"GET","outcome":"ok"}` + "\n"))
	f.Add([]byte{claimMarker, 0x0c, 0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, size, err := decodeEntry(nil, b)
		if err == nil {
			if size > len(b) || len(recs) == 0 {
				t.Fatalf("decoded %d records from %d bytes of %d", len(recs), size, len(b))
			}
			if again := appendClaim(nil, recs...); !bytes.Equal(again, b[:size]) {
				t.Fatalf("accepted %x, re-encodes to %x", b[:size], again)
			}
		}
		if len(b) > 0 && b[0] == '{' && !errors.Is(checkHead("fuzz", b[0]), ErrRetiredFormat) {
			t.Fatalf("a trail starting %q is not refused as retired", b[:1])
		}
		fuzzReaders(b)
	})
}

// fuzzReaders runs the readers built on the decoders over b, which must
// take anything.
func fuzzReaders(b []byte) {
	lastSeq(b)
	for p := 0; p < len(b); {
		_, n, err := decodeEntry(nil, b[p:])
		if err != nil || n == 0 {
			break
		}
		p += n
	}
}

// TestLastSeqAnywhere starts the recovery window at every offset of a trail
// whose keys hold marker bytes, newlines and braces: whatever it cuts, the
// answer is the highest number of the frames that are whole inside it.
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
	for i := 0; i < 40; i++ {
		var recs []Record
		var highest uint64
		for j := 0; j < 1+rng.Intn(5); j++ {
			r := Record{Seq: uint64(2000 + 100*i + rng.Intn(100)), Time: time.Unix(int64(i), int64(j)), Actor: "svc", Op: "GET",
				Key: string([]byte{claimMarker, '\n', '{', byte(j)}), Owner: strings.Repeat("o", rng.Intn(200)), Outcome: OutcomeOK}
			recs, highest = append(recs, r), max(highest, r.Seq)
		}
		add(appendClaim(nil, recs...), highest)
	}
	for off := 0; off <= len(file); off++ {
		var want uint64
		for _, s := range spans {
			if s.start >= off {
				want = max(want, s.seq)
			}
		}
		if got := lastSeq(file[off:]); got != want {
			t.Fatalf("window at %d: last seq %d, want %d", off, got, want)
		}
	}
}
