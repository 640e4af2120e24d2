package experiments

import (
	"cmp"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"gdprstore/internal/backup"
	"gdprstore/internal/core"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/metrics"
)

// The erasure experiment measures the paper's Article 17 cost model: how
// long FORGETUSER takes, and what deferred work it leaves, across store
// configurations. Every cell runs the same body against a fresh embedded
// store — populate its owners, forget each one under the timed loop, then
// run Maintain — so residue from earlier erasures cannot skew the next
// measurement.

// ErasureCell is one store configuration of the erasure experiment.
type ErasureCell struct {
	// Timing is the store's compliance timing.
	Timing core.Timing
	// Journaled selects full capability with auditing and an AOF, whose
	// compaction a real-time Forget pays; otherwise the store is partial
	// capability without a journal.
	Journaled bool
	// Backups attaches a backup manager with one generation written.
	Backups bool
	// Shred turns on envelope encryption: Forget destroys the owner's key.
	Shred bool
	// Owners are erased one each; every owner holds KeysPerOwner records.
	Owners       int
	KeysPerOwner int
}

// ErasureRow is one cell's Article 17 cost profile.
type ErasureRow struct {
	ErasureCell
	// Forget summarises the latency of the Forget calls, one per owner.
	Forget metrics.Snapshot
	// Maintain is the deferred work after the erasures (eventual timing
	// pays the AOF compaction and backup refresh here; the shred sweep
	// reclaims the dead ciphertext here), and Reclaimed what it reclaimed.
	Maintain  time.Duration
	Reclaimed int
}

// ErasureLatency measures what §4.3 and §3.2 together imply but the paper
// does not: real-time vs eventual Forget, with and without backups, for
// subjects owners of recordsPerSubject records each, keeping journals and
// backups in dir (a removed temporary directory when empty). Real-time
// Forget pays AOF compaction and backup refresh synchronously; eventual
// Forget defers them to Maintain. Networked replicas are left out: they
// apply an erasure from the replication stream on every timing, so Forget
// never waits on them.
func ErasureLatency(dir string, subjects, recordsPerSubject int) ([]ErasureRow, error) {
	subjects = cmp.Or(subjects, 50)
	recordsPerSubject = cmp.Or(recordsPerSubject, 10)
	var cells []ErasureCell
	for _, timing := range []core.Timing{core.TimingEventual, core.TimingRealTime} {
		for _, backups := range []bool{false, true} {
			cells = append(cells, ErasureCell{Timing: timing, Journaled: true, Backups: backups,
				Owners: subjects, KeysPerOwner: recordsPerSubject})
		}
	}
	return erasure(dir, cells)
}

// ErasureByOwnerSize measures eager and crypto-shred erasure of owners at
// each keys-per-owner point (defaults 16, 256, 4096 and 8 owners). Eager
// erasure deletes every record, so its latency grows linearly with
// keys-per-owner; shredding destroys the owner's data key instead and
// leaves reclamation to the sweep, so its latency stays flat.
func ErasureByOwnerSize(keysPerOwner []int, owners int) ([]ErasureRow, error) {
	if len(keysPerOwner) == 0 {
		keysPerOwner = []int{16, 256, 4096}
	}
	owners = cmp.Or(owners, 8)
	var cells []ErasureCell
	for _, k := range keysPerOwner {
		for _, shred := range []bool{false, true} {
			cells = append(cells, ErasureCell{Timing: core.TimingEventual, Shred: shred,
				Owners: owners, KeysPerOwner: k})
		}
	}
	return erasure("", cells)
}

func erasure(dir string, cells []ErasureCell) ([]ErasureRow, error) {
	dir, cleanup, err := WorkDir(dir, "gdpr-erasure")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rows := make([]ErasureRow, 0, len(cells))
	for i, c := range cells {
		row, err := erasureCell(filepath.Join(dir, fmt.Sprintf("erasure-%d", i)), c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// erasureCell is the one body: populate, forget every owner, maintain.
// Its journal and backups live under the path prefix base.
func erasureCell(base string, c ErasureCell) (ErasureRow, error) {
	cfg := core.Config{Compliant: true, Timing: c.Timing, Capability: core.CapabilityPartial}
	if c.Journaled {
		cfg.Capability = core.CapabilityFull
		cfg.AuditEnabled = true
		cfg.AOFPath = base + ".aof"
		cfg.DefaultTTL = 24 * time.Hour
	}
	if c.Shred {
		key, err := cryptoutil.RandomKey()
		if err != nil {
			return ErasureRow{}, err
		}
		cfg.Envelope, cfg.MasterKey = true, key
	}
	st, err := core.Open(cfg)
	if err != nil {
		return ErasureRow{}, err
	}
	defer st.Close()
	if err := InstallPrincipals(st, c.Owners); err != nil {
		return ErasureRow{}, err
	}
	if c.Backups {
		m, err := backup.NewManager(base+"-backups", nil, nil)
		if err != nil {
			return ErasureRow{}, err
		}
		st.SetBackupManager(m)
	}

	err = Populate(StorePersonas(st), PersonaConfig{Subjects: c.Owners, RecordsPerSubject: c.KeysPerOwner,
		Purposes: []string{"billing"}})
	if err != nil {
		return ErasureRow{}, err
	}
	if c.Backups {
		if _, err := st.Backup(); err != nil {
			return ErasureRow{}, err
		}
	}

	f := &forgetter{st: st, want: c.KeysPerOwner}
	res, err := timedLoop(OpErase, int64(c.Owners), 1, func(int) (worker, error) { return f, nil })
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return ErasureRow{}, err
	}
	ms := st.Maintain()
	return ErasureRow{ErasureCell: c, Forget: res.PerOp[OpErase],
		Maintain: ms.Took, Reclaimed: ms.ErasedReclaimed}, nil
}

// forgetter erases owner i on draw i, as the owner.
type forgetter struct {
	st    *core.Store
	want  int
	owner string
}

func (f *forgetter) next(i int64) (string, bool) {
	f.owner = SubjectName(int(i))
	return OpErase, true
}

func (f *forgetter) issue() error {
	n, err := f.st.Forget(core.Ctx{Actor: f.owner}, f.owner)
	if err == nil && n != f.want {
		err = fmt.Errorf("erased %d, want %d", n, f.want)
	}
	if err != nil {
		return fmt.Errorf("experiments: erasure forget %s: %w", f.owner, err)
	}
	return nil
}

// FormatErasure renders the timing × backups table.
func FormatErasure(rows []ErasureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s %12s %12s %12s %14s\n",
		"Timing", "Backups", "Forget p50", "Forget p99", "Forget max", "Maintain")
	for _, r := range rows {
		backups := "no"
		if r.Backups {
			backups = "yes"
		}
		fmt.Fprintf(&b, "%-10s %-7s %12v %12v %12v %14v\n",
			r.Timing, backups,
			r.Forget.P50.Round(time.Microsecond),
			r.Forget.P99.Round(time.Microsecond),
			r.Forget.Max.Round(time.Microsecond),
			r.Maintain.Round(time.Microsecond))
	}
	b.WriteString("real-time pays compaction + backup refresh inside Forget;\n")
	b.WriteString("eventual defers that work to Maintain, keeping Forget latency flat.\n")
	return b.String()
}

// FormatErasureByOwnerSize renders the flat-vs-linear keys-per-owner
// table.
func FormatErasureByOwnerSize(rows []ErasureRow) string {
	var b strings.Builder
	b.WriteString("[gdprbench/erasure] FORGETUSER latency vs keys-per-owner\n")
	fmt.Fprintf(&b, "  %-8s %-8s %12s %12s %12s %14s\n",
		"keys", "mode", "p50", "p99", "max", "sweep")
	for _, r := range rows {
		mode, sweep := "eager", "-"
		if r.Shred {
			mode = "shred"
			sweep = fmt.Sprintf("%d in %v", r.Reclaimed, r.Maintain.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "  %-8d %-8s %12v %12v %12v %14s\n",
			r.KeysPerOwner, mode, r.Forget.P50, r.Forget.P99, r.Forget.Max, sweep)
	}
	return strings.TrimRight(b.String(), "\n")
}
