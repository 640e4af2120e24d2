package backup

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"gdprstore/internal/clock"
)

// dataset is what a backup sees of a store: the commands its snapshot
// emits, each a name and its arguments.
type dataset [][]string

func (d dataset) snapshot(emit func(name string, args ...[]byte) error) error {
	for _, c := range d {
		args := make([][]byte, 0, len(c)-1)
		for _, a := range c[1:] {
			args = append(args, []byte(a))
		}
		if err := emit(c[0], args...); err != nil {
			return err
		}
	}
	return nil
}

// restoreLatest reads m's newest generation back as a dataset.
func restoreLatest(m *Manager) (string, dataset, error) {
	var got dataset
	path, err := m.RestoreLatest(func(name string, args [][]byte) error {
		c := []string{name}
		for _, a := range args {
			c = append(c, string(a))
		}
		got = append(got, c)
		return nil
	})
	return path, got, err
}

func newManager(t *testing.T, key []byte) (*Manager, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC))
	m, err := NewManager(t.TempDir(), key, vc)
	if err != nil {
		t.Fatal(err)
	}
	return m, vc
}

func TestWriteRestoreRoundTrip(t *testing.T) {
	m, _ := newManager(t, nil)
	in := dataset{
		{"SET", "plain", "1"},
		{"SETEX", "ttl", "\x00\x01deadline", "2"},
		{"GREC", "\xffbinary\r\nmetadata", "pd:alice", ""},
		{"GOBJ", "alice", "marketing"},
	}
	if _, err := m.Create(in.snapshot); err != nil {
		t.Fatal(err)
	}
	if _, got, err := restoreLatest(m); err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("restored %q, %v; want %q", got, err, in)
	}
}

func TestEncryptedBackupUnreadableWithoutKey(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 32)
	m, vc := newManager(t, key)
	secret := "super-secret-personal-data"
	in := dataset{{"SET", "pd", secret}}
	path, err := m.Create(in.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(secret)) {
		t.Fatal("plaintext visible in encrypted backup")
	}
	// A manager over the same directory with the wrong key reads noise, and
	// the read fails.
	wrong, err := NewManager(m.dir, bytes.Repeat([]byte{8}, 32), vc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := restoreLatest(wrong); err == nil {
		t.Fatal("wrong key restored successfully")
	}
	if _, got, err := restoreLatest(m); err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("restored %q, %v", got, err)
	}
}

func TestManagerGenerations(t *testing.T) {
	m, vc := newManager(t, nil)
	p1, err := m.Create(dataset{{"SET", "k", "v1"}}.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(time.Hour)
	v2 := dataset{{"SET", "k", "v2"}}
	p2, err := m.Create(v2.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("generations collide")
	}
	gens, _ := m.List()
	if len(gens) != 2 || gens[0] != p1 || gens[1] != p2 {
		t.Fatalf("list = %v", gens)
	}
	path, got, err := restoreLatest(m)
	if err != nil || path != p2 || !reflect.DeepEqual(got, v2) {
		t.Fatalf("latest restore = %s %q, %v", path, got, err)
	}
}

func TestRestoreLatestEmpty(t *testing.T) {
	m, _ := newManager(t, nil)
	if _, _, err := restoreLatest(m); err == nil {
		t.Fatal("restore from empty dir accepted")
	}
}

// TestRestoreLatestRefusesShortGeneration: a generation cut anywhere, at a
// record boundary or inside a record, is an error, not a shorter dataset.
func TestRestoreLatestRefusesShortGeneration(t *testing.T) {
	m, _ := newManager(t, nil)
	path, err := m.Create(dataset{{"SET", "a", "1"}, {"GOBJ", "alice", "marketing"}}.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if _, got, err := restoreLatest(m); err == nil {
			t.Fatalf("generation cut at byte %d of %d restored as %q", cut, len(raw), got)
		}
	}
}

// TestRestoreLatestStopsAtRefusal: a record the replay function refuses
// stops the read, and the refusal is what RestoreLatest returns.
func TestRestoreLatestStopsAtRefusal(t *testing.T) {
	m, _ := newManager(t, nil)
	if _, err := m.Create(dataset{{"SET", "a", "1"}, {"GKEY", "alice", "k"}, {"SET", "b", "2"}}.snapshot); err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	var seen []string
	_, err := m.RestoreLatest(func(name string, _ [][]byte) error {
		seen = append(seen, name)
		if name == "GKEY" {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) || !reflect.DeepEqual(seen, []string{"SET", "GKEY"}) {
		t.Fatalf("err = %v after %v", err, seen)
	}
}

// TestCreateFailureLeavesNothing: a snapshot that fails leaves neither a
// generation nor its temporary file behind.
func TestCreateFailureLeavesNothing(t *testing.T) {
	m, _ := newManager(t, nil)
	failing := func(emit func(string, ...[]byte) error) error {
		if err := emit("SET", []byte("k"), []byte("v")); err != nil {
			return err
		}
		return errors.New("engine gone")
	}
	if _, err := m.Create(failing); err == nil {
		t.Fatal("failed snapshot accepted")
	}
	if ents, _ := os.ReadDir(m.dir); len(ents) != 0 {
		t.Fatalf("left %d files behind", len(ents))
	}
}

func TestRefreshPurgesErasedData(t *testing.T) {
	// The Article 17 backup property: after erasure + Refresh, no backup
	// generation contains the erased data.
	m, vc := newManager(t, nil)
	secret := "alice-erased-payload"
	before := dataset{{"SET", "pd:alice", secret}, {"SET", "pd:bob", "bob-data"}}
	m.Create(before.snapshot)
	vc.Advance(time.Hour)
	m.Create(before.snapshot)

	after := before[1:] // the erasure
	_, removed, err := m.Refresh(after.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d old generations, want 2", removed)
	}
	gens, _ := m.List()
	if len(gens) != 1 {
		t.Fatalf("generations after refresh = %d", len(gens))
	}
	raw, err := os.ReadFile(gens[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(secret)) {
		t.Fatal("erased data persists in the refreshed backup")
	}
	if !bytes.Contains(raw, []byte("bob-data")) {
		t.Fatal("unrelated data lost from backup")
	}
}

// TestParallelCreateNoCollision is the regression test for the unguarded
// seq counter: concurrent Creates used to race on m.seq (a data race, and
// colliding sequence numbers within one clock tick meant failed Creates
// or silently fewer generations than requested). Run under -race.
func TestParallelCreateNoCollision(t *testing.T) {
	m, _ := newManager(t, nil) // virtual clock: every Create shares one tick
	const writers = 8
	paths := make([]string, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths[i], errs[i] = m.Create(dataset{{"SET", "k", fmt.Sprint(i)}}.snapshot)
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool)
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("create %d: %v", i, errs[i])
		}
		if seen[paths[i]] {
			t.Fatalf("duplicate generation path %s", paths[i])
		}
		seen[paths[i]] = true
	}
	gens, err := m.List()
	if err != nil || len(gens) != writers {
		t.Fatalf("generations = %d, %v; want %d", len(gens), err, writers)
	}
}
