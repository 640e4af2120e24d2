package server

import (
	"bytes"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gdprstore/internal/core"
)

// The INFO help text regenerates from the registry, so it names every
// section — the stale-summary bug (sections added by later PRs missing
// from the list) cannot recur.
func TestInfoSummaryListsEverySection(t *testing.T) {
	summary := commandTable["INFO"].Summary
	for _, name := range InfoSectionNames() {
		if !strings.Contains(summary, name) {
			t.Errorf("INFO summary omits section %q: %s", name, summary)
		}
	}
}

func TestInfoSnapshotUnknownSection(t *testing.T) {
	srv, _ := startServer(t, core.Baseline())
	if _, err := srv.InfoSnapshot("nonsense"); err == nil ||
		!strings.Contains(err.Error(), "unknown INFO section") {
		t.Fatalf("err = %v", err)
	}
}

func TestRenderInfoText(t *testing.T) {
	got := renderInfoText([]InfoSnapshot{
		{Name: "alpha", Fields: []InfoField{fstr("a", "1"), fstr("b", "x")}},
		{Name: "beta", Fields: []InfoField{fbool("on", true)}},
	})
	want := "# alpha\r\na:1\r\nb:x\r\n# beta\r\non:true\r\n"
	if got != want {
		t.Fatalf("renderInfoText = %q, want %q", got, want)
	}
}

// Every registered section renders through an explicit request, and the
// sections whose numbers /metrics exports list the same keys whether
// their feature is off (Baseline) or on (audit, envelope and an AOF): a
// one-line "disabled" stub would make keys and metric families vanish
// with configuration.
func TestInfoSnapshotExplicitSectionAlwaysRenders(t *testing.T) {
	dir := t.TempDir()
	full := core.EventualFull(filepath.Join(dir, "audit.log"))
	full.AOFPath = filepath.Join(dir, "a.aof")
	full.Envelope = true
	full.MasterKey = bytes.Repeat([]byte{7}, 32)
	keys := func(srv *Server, name string) []string {
		snaps, err := srv.InfoSnapshot(name)
		if err != nil {
			t.Fatalf("InfoSnapshot(%q): %v", name, err)
		}
		if len(snaps) != 1 || snaps[0].Name != name {
			t.Fatalf("InfoSnapshot(%q) = %+v", name, snaps)
		}
		var ks []string
		for _, f := range snaps[0].Fields {
			ks = append(ks, f.Key)
		}
		return ks
	}
	off, _ := startServer(t, core.Baseline())
	on, _ := startServer(t, full)
	for _, name := range InfoSectionNames() {
		offKeys, onKeys := keys(off, name), keys(on, name)
		switch name {
		case "gdprstore", "audit", "erasure", "retention":
			if !slices.Equal(offKeys, onKeys) {
				t.Errorf("INFO %s keys differ with the feature off and on:\noff %v\non  %v", name, offKeys, onKeys)
			}
		}
	}
}

// TestInfoReportsLogSizes: what the trail and the AOF hold on disk is
// readable from the running server, audit_size in INFO audit beside
// aof_size in INFO gdprstore, and both are the files' own counts; a healthy
// AOF reports no aof_last_error.
func TestInfoReportsLogSizes(t *testing.T) {
	dir := t.TempDir()
	cfg := core.EventualFull(filepath.Join(dir, "audit.log"))
	cfg.AOFPath = filepath.Join(dir, "a.aof")
	srv, c := startServer(t, cfg)
	setupPrincipals(t, c)
	for _, cmd := range [][]string{{"AUTH", "controller"}, {"PURPOSE", "billing"},
		{"GPUT", "pd:1", "v", "OWNER", "alice", "TTL", "60"}, {"GGET", "pd:1"}} {
		if _, err := c.Do(cmd...); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.store.Trail().Sync(); err != nil {
		t.Fatal(err)
	}
	field := func(section, key string) string {
		snaps, err := srv.InfoSnapshot(section)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range snaps[0].Fields {
			if f.Key == key {
				return f.Value
			}
		}
		t.Fatalf("INFO %s has no %s", section, key)
		return ""
	}
	trail, log := srv.store.Trail().Size(), srv.store.Log().Size()
	if trail == 0 || log == 0 {
		t.Fatalf("trail %d B, AOF %d B after a GPUT and a GGET; want both written", trail, log)
	}
	if got := field("audit", "audit_size"); got != strconv.FormatInt(trail, 10) {
		t.Errorf("audit_size = %s, want %d", got, trail)
	}
	if got := field("gdprstore", "aof_size"); got != strconv.FormatInt(log, 10) {
		t.Errorf("aof_size = %s, want %d", got, log)
	}
	if got := field("gdprstore", "aof_last_error"); got != "" {
		t.Errorf("aof_last_error = %q on a healthy log, want empty", got)
	}
}
