// Package backup keeps point-in-time backup generations in a directory,
// for the backup half of the paper's Article 17 requirement: erased
// personal data must not survive in backups. A generation is one snapshot
// stream, written as an AOF rewrite writes the log (aof.WriteSnapshot,
// optionally encrypted at rest: the LUKS stand-in) and closed by a
// trailer, so aof.Load reads it back and a copy that lacks the trailer is
// known to be cut short. Generations are written and refreshed, never read
// back: the package does not interpret them, and the store supplies what
// one holds. The compliance layer's stream is each record with its GDPR
// metadata plus the standing objections, and never a key, so two erasure
// strategies keep generations compliant:
//
//   - Refresh: re-snapshot after erasure and delete older generations, so
//     no backup older than the erasure survives (what Google Cloud's
//     ~180-day deletion guarantee amounts to, done eagerly);
//   - crypto-shredding (envelope encryption): a generation holds per-owner
//     ciphertext and no data key, so destroying the owner's key in the live
//     keyring renders every generation's copy unreadable.
package backup

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
)

// stampLayout is a generation name's timestamp.
const stampLayout = "20060102T150405.000000000"

// Manager keeps timestamped backup generations in a directory. All
// methods are safe for concurrent use: a mutex serialises generation
// numbering and the directory-level operations (create, purge), so
// concurrent Creates cannot race on seq.
type Manager struct {
	mu  sync.Mutex
	dir string
	key []byte
	clk clock.Clock
	seq int // disambiguates backups within one clock tick
}

// NewManager creates a manager over dir (created if missing). key, when
// non-nil, encrypts every generation at rest.
func NewManager(dir string, key []byte, clk clock.Clock) (*Manager, error) {
	if clk == nil {
		clk = clock.NewWall()
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("backup: mkdir: %w", err)
	}
	return &Manager{dir: dir, key: key, clk: clk}, nil
}

// Create writes the commands snapshot emits as a new generation and
// returns its path.
func (m *Manager) Create(snapshot aof.SnapshotFunc) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.createLocked(snapshot)
}

// trailer closes every generation. aof.Load takes a short read for a torn
// tail, which a log may have; a generation read without its trailer is
// truncated, damaged or read under the wrong key.
const trailer = "BACKUPEND"

// createLocked is Create's body; callers hold m.mu.
func (m *Manager) createLocked(snapshot aof.SnapshotFunc) (string, error) {
	m.seq++
	path := filepath.Join(m.dir, fmt.Sprintf("backup-%s-%04d.snap",
		m.clk.Now().UTC().Format(stampLayout), m.seq))
	err := aof.WriteSnapshot(path, m.key, func(emit func(string, ...[]byte) error) error {
		if err := snapshot(emit); err != nil {
			return err
		}
		return emit(trailer)
	})
	if err != nil {
		return "", fmt.Errorf("backup: %w", err)
	}
	return path, nil
}

// List returns existing generations, oldest first.
func (m *Manager) List() ([]string, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "backup-") && strings.HasSuffix(e.Name(), ".snap") {
			out = append(out, filepath.Join(m.dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Refresh implements post-erasure backup hygiene: snapshot the current
// (already-erased) dataset as a new generation and remove every older
// generation, so no backup predating the erasure survives. It returns the
// new generation's path and how many old generations were removed.
func (m *Manager) Refresh(snapshot aof.SnapshotFunc) (string, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, err := m.List()
	if err != nil {
		return "", 0, err
	}
	path, err := m.createLocked(snapshot)
	if err != nil {
		return "", 0, err
	}
	removed, err := m.remove(old)
	return path, removed, err
}

// remove deletes gens and then fsyncs the directory, so that no removed
// generation comes back after a power loss. It returns how many it
// removed; callers hold m.mu.
func (m *Manager) remove(gens []string) (int, error) {
	for i, g := range gens {
		if err := os.Remove(g); err != nil {
			return i, errors.Join(fmt.Errorf("backup: purge %s: %w", g, err), aof.SyncDir(m.dir))
		}
	}
	if len(gens) == 0 {
		return 0, nil
	}
	return len(gens), aof.SyncDir(m.dir)
}
