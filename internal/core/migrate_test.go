package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

// Tests for the compliance half of live slot migration: dump / restore /
// guarded remove. The invariants under test are the ones the cluster
// protocol leans on — metadata travels verbatim, erasures win over
// migration in both directions, and a write racing the move is detected
// instead of lost.

// migrateCfg is an envelope-mode compliant config on a shared virtual
// clock, so both ends of a simulated migration agree on time.
func migrateCfg(clk *clock.Virtual) Config {
	return Config{
		Compliant:    true,
		Capability:   CapabilityPartial,
		AuditEnabled: true,
		Envelope:     true,
		MasterKey:    bytes.Repeat([]byte{0x5a}, 32),
		Clock:        clk,
	}
}

func openMigratePair(t *testing.T) (src, dst *Store, clk *clock.Virtual) {
	t.Helper()
	clk = clock.NewVirtual(time.Unix(1_700_000_000, 0))
	var err error
	if src, err = Open(migrateCfg(clk)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if dst, err = Open(migrateCfg(clk)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	return src, dst, clk
}

// overWire copies a migration record into fresh buffers, as the
// destination's RESP parser hands it over.
func overWire(rec [][]byte) [][]byte {
	out := make([][]byte, len(rec))
	for i, a := range rec {
		out[i] = bytes.Clone(a)
	}
	return out
}

func TestMigrationRoundTripPreservesMetadata(t *testing.T) {
	src, dst, clk := openMigratePair(t)
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const key = "pd:{carol}:profile"

	err := src.Put(ctx, key, []byte("carol-data"), PutOptions{
		Owner:    "carol",
		Purposes: []string{"service", "analytics"},
		Origin:   "signup-form",
		TTL:      2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcMeta, err := src.Metadata(ctx, key)
	if err != nil {
		t.Fatal(err)
	}

	rec, raw, ok, err := src.DumpForMigration(key)
	if err != nil || !ok {
		t.Fatalf("dump = ok=%v, %v; want ok", ok, err)
	}
	if len(rec) != 4 || string(rec[0]) != opRecord || string(rec[2]) != key || string(rec[3]) != "carol-data" {
		t.Fatalf("dumped record = %q, want GREC <metadata> %s <the plaintext>", rec, key)
	}
	if len(raw) == 0 || bytes.Equal(raw, rec[3]) {
		t.Fatal("raw engine bytes should be the sealed form, not the plaintext")
	}

	// Over the wire (fresh buffers), then restore on the destination an
	// hour later.
	clk.Advance(time.Hour)
	if err := dst.RestoreRecord(ctx, overWire(rec), nil); err != nil {
		t.Fatal(err)
	}

	v, err := dst.Get(ctx, key)
	if err != nil || string(v) != "carol-data" {
		t.Fatalf("restored Get = %q, %v", v, err)
	}
	dstMeta, err := dst.Metadata(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata travels verbatim: same creation time, origin, purposes and
	// absolute retention deadline. Only the key epoch is re-stamped (the
	// value is sealed under the destination's keyring now).
	if !dstMeta.Created.Equal(srcMeta.Created) {
		t.Errorf("Created = %v, want %v", dstMeta.Created, srcMeta.Created)
	}
	if dstMeta.Origin != "signup-form" || len(dstMeta.Purposes) != 2 {
		t.Errorf("metadata lost fields: %+v", dstMeta)
	}
	if !dstMeta.Expiry.Equal(srcMeta.Expiry) {
		t.Errorf("Expiry = %v, want %v", dstMeta.Expiry, srcMeta.Expiry)
	}
	// The remaining TTL reflects the absolute deadline: one of the two
	// hours elapsed in transit.
	if ttl, status := dst.TTL(key); status != store.TTLSet || ttl > time.Hour {
		t.Errorf("restored TTL = %v (%v), want <= 1h remaining", ttl, status)
	}
	// The arrival was audited as its own processing event.
	recs, err := dst.Trail().Query(audit.Filter{Op: "RESTOREKEY", Owner: "carol"})
	if err != nil || len(recs) != 1 {
		t.Fatalf("destination RESTOREKEY audit records = %d, %v; want 1", len(recs), err)
	}
}

func TestMigrationNeverDumpsErased(t *testing.T) {
	src, _, _ := openMigratePair(t)
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const key = "pd:{dave}:profile"
	if err := src.Put(ctx, key, []byte("dave-data"), PutOptions{Owner: "dave"}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Forget(Ctx{Actor: "dave"}, "dave"); err != nil {
		t.Fatal(err)
	}
	// The ciphertext is physically present (lazy sweep) but crypto-erased:
	// migration must not resurrect it.
	if !src.Engine().Exists(key) {
		t.Fatal("test premise broken: ciphertext already swept")
	}
	_, _, ok, err := src.DumpForMigration(key)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("DumpForMigration dumped a crypto-erased record")
	}
}

func TestMigrationRestoreRefusedAfterErasure(t *testing.T) {
	src, dst, _ := openMigratePair(t)
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const key = "pd:{erin}:profile"
	if err := src.Put(ctx, key, []byte("erin-data"), PutOptions{Owner: "erin"}); err != nil {
		t.Fatal(err)
	}
	rec, _, ok, err := src.DumpForMigration(key)
	if err != nil || !ok {
		t.Fatalf("dump = ok=%v, %v", ok, err)
	}

	// The erasure reaches the destination before the record does: the
	// owner's key there is shredded, so the restore must fail ERASED
	// rather than re-create data the subject asked to be forgotten.
	if err := dst.Put(ctx, "pd:{erin}:other", []byte("x"), PutOptions{Owner: "erin"}); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Forget(Ctx{Actor: "erin"}, "erin"); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreRecord(ctx, rec, nil); !errors.Is(err, ErrErased) {
		t.Fatalf("restore after erasure = %v, want ErrErased", err)
	}
	if v, err := dst.Get(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused record is readable: %q, %v", v, err)
	}
}

func TestMigrationRestoreDropsOverdueRecord(t *testing.T) {
	src, dst, clk := openMigratePair(t)
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const key = "pd:{fred}:profile"
	err := src.Put(ctx, key, []byte("fred-data"), PutOptions{Owner: "fred", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, ok, err := src.DumpForMigration(key)
	if err != nil || !ok {
		t.Fatalf("dump = ok=%v, %v", ok, err)
	}
	// The record's retention deadline passes in transit: restoring it
	// would resurrect overdue data, so it is dropped silently.
	clk.Advance(2 * time.Minute)
	if err := dst.RestoreRecord(ctx, rec, nil); err != nil {
		t.Fatal(err)
	}
	if dst.Engine().Exists(key) {
		t.Fatal("overdue record was restored")
	}
}

func TestMigrationRawRecordKeepsTTL(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	src, err := Open(Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := Open(Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	// Baseline stores carry no metadata; the absolute deadline rides in
	// the engine's own SETEX record instead.
	src.Engine().SetEX("session:42", []byte("blob"), time.Hour)
	rec, raw, ok, err := src.DumpForMigration("session:42")
	if err != nil || !ok || len(raw) == 0 {
		t.Fatalf("dump = ok=%v raw=%d, %v", ok, len(raw), err)
	}
	if len(rec) != 4 || string(rec[0]) != "SETEX" {
		t.Fatalf("raw record = %q, want no meta and an absolute deadline", rec)
	}
	clk.Advance(30 * time.Minute)
	if err := dst.RestoreRecord(Ctx{}, overWire(rec), nil); err != nil {
		t.Fatal(err)
	}
	if ttl, status := dst.TTL("session:42"); status != store.TTLSet || ttl > 30*time.Minute {
		t.Fatalf("restored raw TTL = %v (%v), want <= 30m remaining", ttl, status)
	}

	// A raw record that expired in transit is likewise dropped.
	src.Engine().SetEX("session:43", []byte("blob"), time.Minute)
	rec, _, ok, err = src.DumpForMigration("session:43")
	if err != nil || !ok {
		t.Fatalf("dump = ok=%v, %v", ok, err)
	}
	clk.Advance(2 * time.Minute)
	if err := dst.RestoreRecord(Ctx{}, rec, nil); err != nil {
		t.Fatal(err)
	}
	if dst.Engine().Exists("session:43") {
		t.Fatal("expired raw record was restored")
	}
}

func TestRemoveMigratedDetectsConcurrentWrite(t *testing.T) {
	src, _, _ := openMigratePair(t)
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const key = "pd:{gina}:profile"
	if err := src.Put(ctx, key, []byte("v1"), PutOptions{Owner: "gina"}); err != nil {
		t.Fatal(err)
	}
	_, raw1, ok, err := src.DumpForMigration(key)
	if err != nil || !ok {
		t.Fatalf("dump = ok=%v, %v", ok, err)
	}

	// A write lands between dump and removal. Sealing is nonce-randomized,
	// so even re-writing the same value changes the stored bytes — the
	// guarded remove refuses and reports the change instead of deleting
	// the newer record.
	if err := src.Put(ctx, key, []byte("v2"), PutOptions{Owner: "gina"}); err != nil {
		t.Fatal(err)
	}
	removed, changed := src.RemoveMigrated(key, raw1)
	if removed || !changed {
		t.Fatalf("RemoveMigrated after racing write = removed=%v changed=%v, want changed", removed, changed)
	}
	if v, err := src.Get(ctx, key); err != nil || string(v) != "v2" {
		t.Fatalf("racing write lost: %q, %v", v, err)
	}

	// Re-dump (the protocol's retry) and remove with the fresh bytes.
	_, raw2, ok, err := src.DumpForMigration(key)
	if err != nil || !ok {
		t.Fatalf("re-dump = ok=%v, %v", ok, err)
	}
	removed, changed = src.RemoveMigrated(key, raw2)
	if !removed || changed {
		t.Fatalf("RemoveMigrated with fresh bytes = removed=%v changed=%v, want removed", removed, changed)
	}
	if src.Engine().Exists(key) {
		t.Fatal("source copy still present after guarded remove")
	}

	// Removing an already-gone key is a no-op, not an error.
	removed, changed = src.RemoveMigrated(key, raw2)
	if removed || changed {
		t.Fatalf("RemoveMigrated on missing key = removed=%v changed=%v, want neither", removed, changed)
	}
}

// TestMigrationMovesOwnerRecord: a subject's owner record migrates as one
// more of its keys. SubjectKeys lists it first; its dump is the owner
// record's own GREC; restored, it replaces the destination's objections
// (no union: the source's set is the subject's), which the records already
// there read; removed, the source no longer holds the subject.
func TestMigrationMovesOwnerRecord(t *testing.T) {
	src, dst, _ := openMigratePair(t)
	ctx := Ctx{Actor: "app", Purpose: "service"}
	const key = "pd:{dora}:1"
	opts := PutOptions{Owner: "dora", Purposes: []string{"service", "ads", "billing"}}
	for _, st := range []*Store{src, dst} {
		if err := st.Put(ctx, key, []byte("v"), opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Object(ctx, "dora", "ads"); err != nil {
		t.Fatal(err)
	}
	if err := dst.Object(ctx, "dora", "billing"); err != nil {
		t.Fatal(err)
	}
	keys := src.SubjectKeys("dora", -1)
	if len(keys) != 2 || keys[0] != OwnerKey("dora") || keys[1] != key {
		t.Fatalf("SubjectKeys = %q, want the owner record then %s", keys, key)
	}
	rec, raw, ok, err := src.DumpForMigration(keys[0])
	if err != nil || !ok || string(rec[0]) != opRecord || string(rec[2]) != keys[0] {
		t.Fatalf("owner record dump = %q, %v, %v", rec, ok, err)
	}
	if err := dst.RestoreRecord(ctx, overWire(rec), nil); err != nil {
		t.Fatal(err)
	}
	if got := dst.Objections("dora"); len(got) != 1 || got[0] != "ads" {
		t.Fatalf("destination objections = %v, want [ads]", got)
	}
	if m, err := dst.Metadata(ctx, key); err != nil || len(m.Objections) != 1 || m.Objections[0] != "ads" {
		t.Fatalf("destination record objects to %v, %v; want [ads]", m.Objections, err)
	}
	if removed, changed := src.RemoveMigrated(keys[0], raw); !removed || changed {
		t.Fatalf("RemoveMigrated of the owner record = %v, %v", removed, changed)
	}
	if src.Objections("dora") != nil {
		t.Fatal("the source kept the owner record")
	}
	// A record may not name an owner record's key with an owner of its own,
	// nor without metadata.
	meta := appendMetadata(nil, &Metadata{Owner: "dora", Purposes: []string{"service"}})
	for _, argv := range [][][]byte{
		{[]byte(opRecord), meta, []byte(OwnerKey("dora")), nil},
		{[]byte("SET"), []byte(OwnerKey("dora")), []byte("v")},
	} {
		if err := dst.RestoreRecord(ctx, argv, nil); !errors.Is(err, ErrReservedKey) {
			t.Errorf("RestoreRecord %q = %v, want ErrReservedKey", argv[0], err)
		}
	}
}
