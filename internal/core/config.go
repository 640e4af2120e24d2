// Package core implements the paper's primary contribution: the GDPR
// compliance layer that turns a fast-but-oblivious key-value engine into a
// GDPR-compliant store, and the configuration spectrum (§3.2) along which
// compliance can be traded against performance.
//
// The layer provides the six features of §3.1 — timely deletion,
// monitoring/logging, metadata indexing, access control, encryption, and
// data-location management — plus the data-subject rights operations of
// §2.1 (access, erasure, portability, objection) on top of
// internal/store, internal/aof, internal/audit, internal/acl and
// internal/cryptoutil.
package core

import (
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

// Timing is the response-time dimension of the compliance spectrum (§3.2):
// does the system complete GDPR tasks synchronously or eventually?
type Timing int

// Timing values.
const (
	// TimingEventual batches GDPR work: audit records flush once per
	// second, AOF compaction after erasure is deferred.
	TimingEventual Timing = iota
	// TimingRealTime completes GDPR tasks synchronously: audit records are
	// fsynced per operation, erasure compacts the AOF before returning.
	// Expiry is the same on both timings: a compliant store's expirer reaps
	// every due record each cycle.
	TimingRealTime
)

// String returns the spectrum label.
func (t Timing) String() string {
	if t == TimingRealTime {
		return "real-time"
	}
	return "eventual"
}

// Capability is the feature-granularity dimension of the spectrum (§3.2):
// does the system natively support every GDPR feature, or only some, with
// the rest delegated to external components?
type Capability int

// Capability values.
const (
	// CapabilityPartial enables the cheap features only (TTL, deletion)
	// and leaves access control, purpose checks, location checks and read
	// auditing to external infrastructure.
	CapabilityPartial Capability = iota
	// CapabilityFull enforces every feature natively: ACLs, purpose and
	// objection checks, location policy, mandatory retention limits, and
	// full data+control path auditing.
	CapabilityFull
)

// String returns the spectrum label.
func (c Capability) String() string {
	if c == CapabilityFull {
		return "full"
	}
	return "partial"
}

// Config assembles a point on the compliance spectrum. Zero value +
// Normalize is the unmodified baseline. Use the preset constructors for the
// paper's configurations.
type Config struct {
	// Timing and Capability position the store on the §3.2 spectrum and
	// drive the defaults of the per-feature knobs below.
	Timing     Timing
	Capability Capability

	// Compliant enables the GDPR layer at all; false reproduces
	// unmodified Redis (no metadata, no audit, no checks) for baselines.
	Compliant bool

	// AOFPath enables command-log persistence when non-empty.
	AOFPath string
	// AOFSync overrides the fsync policy; nil means derive from Timing
	// (real-time → always, eventual → everysec).
	AOFSync *aof.SyncPolicy
	// JournalReads reproduces the paper's §4.1 retrofit exactly: the AOF
	// records every interaction including reads, so monitoring rides the
	// journal. Combined with AOFSync=always this is Figure 1's
	// "AOF w/ sync" configuration.
	JournalReads bool

	// AuditEnabled turns the monitoring feature on (Art. 30).
	AuditEnabled bool
	// AuditPath stores the trail durably when non-empty; empty keeps it in
	// memory (no durability — partial compliance).
	AuditPath string
	// AuditQueueDepth bounds the records the audit pipeline holds
	// accepted and not yet written (0 = pipeline default).
	AuditQueueDepth int
	// AuditBackpressure overrides the full-queue policy; nil derives
	// Block (shedding audit records is an explicit opt-in, whatever the
	// timing).
	AuditBackpressure *audit.Backpressure
	// AuditMask pseudonymizes Key/Owner/Detail in every audit record
	// under a trail key before any sink sees it, so the trail is not a
	// second plaintext copy of personal data. Trail queries return the
	// pseudonyms; Breach names the live, unerased subjects among them from
	// the owners the store holds, and keeps no table of its own.
	AuditMask bool
	// AuditSocket, when non-empty ("tcp://host:port" or "unix:///path"),
	// exports the (masked) trail line-delimited to an external collector.
	AuditSocket string

	// AtRestKey encrypts AOF and audit files (32 bytes) — the LUKS
	// stand-in of §4.2.
	AtRestKey []byte
	// Envelope encrypts each value under a per-owner data key (the
	// key-level alternative of §4.2). Enables crypto-shredding on erasure.
	Envelope bool
	// MasterKey roots the envelope keyring; required when Envelope is set.
	MasterKey []byte
	// ErasureSweepBudget caps how many crypto-erased records one sweep
	// cycle deletes, bounding the latency impact of each cycle; records it
	// examines and keeps do not count. 0 derives 4096.
	ErasureSweepBudget int

	// DefaultTTL applies to records written without an explicit TTL.
	DefaultTTL time.Duration
	// RequireTTL rejects writes with no retention bound (Art. 5 storage
	// limitation); nil derives from Capability (full → true).
	RequireTTL *bool

	// AllowedLocations whitelists storage regions (Art. 46); empty means
	// unrestricted. DefaultLocation tags records written without one.
	AllowedLocations []string
	DefaultLocation  string

	// EnforceACL turns on access control (Art. 25/32); nil derives from
	// Capability (full → true).
	EnforceACL *bool

	// Clock drives TTLs, audit timestamps and grant expiry; nil = wall.
	Clock clock.Clock
	// Seed makes expiry sampling deterministic (0 = fixed default).
	Seed int64
	// Shards is the engine's lock-stripe count (rounded up to a power of
	// two); 0 means the engine default, 1 reproduces the old single-mutex
	// engine for baseline comparisons.
	Shards int
}

// normalized is Config with every derived knob resolved.
type normalized struct {
	Config
	aofSync    aof.SyncPolicy
	auditMode  audit.SyncMode
	auditReads bool
	auditBP    audit.Backpressure
	strategy   store.ExpiryStrategy
	requireTTL bool
	enforceACL bool

	sweepBudget int
}

func (c Config) normalize() normalized {
	n := normalized{Config: c}
	if c.Clock == nil {
		n.Config.Clock = clock.NewWall()
	}
	if c.AOFSync != nil {
		n.aofSync = *c.AOFSync
	} else if c.Timing == TimingRealTime {
		n.aofSync = aof.SyncAlways
	} else {
		n.aofSync = aof.SyncEverySec
	}
	if c.Timing == TimingRealTime {
		n.auditMode = audit.SyncEveryOp
	} else {
		n.auditMode = audit.SyncBatched
	}
	// Full capability takes the paper's strict reading of Art. 30: "every
	// read operation now has to be followed by a logging-write operation".
	n.auditReads = c.Capability == CapabilityFull
	if c.AuditBackpressure != nil {
		n.auditBP = *c.AuditBackpressure
	} else {
		// Both timings default to Block: shedding compliance evidence is
		// never implied, only requested.
		n.auditBP = audit.BackpressureBlock
	}
	// Storage limitation binds whatever the timing: a compliant store pops
	// every due key off the engine's deadline heap each cycle. Unmodified
	// Redis keeps its sampler.
	if c.Compliant {
		n.strategy = store.ExpiryHeap
	}
	if c.RequireTTL != nil {
		n.requireTTL = *c.RequireTTL
	} else {
		n.requireTTL = c.Capability == CapabilityFull
	}
	if c.EnforceACL != nil {
		n.enforceACL = *c.EnforceACL
	} else {
		n.enforceACL = c.Capability == CapabilityFull
	}
	n.sweepBudget = c.ErasureSweepBudget
	if n.sweepBudget <= 0 {
		n.sweepBudget = 4096
	}
	return n
}

// Baseline returns the unmodified-Redis configuration: no GDPR features at
// all. Figure 1's "Unmodified" bars run against this.
func Baseline() Config {
	return Config{Compliant: false}
}

// Strict returns full + real-time compliance — the most expensive corner of
// the spectrum (§3.2 "strict compliance"). Figure 1's "AOF w/ sync" bars
// correspond to Strict with auditing as the only enabled feature.
func Strict(auditPath string) Config {
	return Config{
		Compliant:    true,
		Timing:       TimingRealTime,
		Capability:   CapabilityFull,
		AuditEnabled: true,
		AuditPath:    auditPath,
	}
}

// EventualFull returns full-capability, eventual-timing compliance — every
// feature on, batched durability. This is the "fsync once per second" 6×
// configuration of §4.1.
func EventualFull(auditPath string) Config {
	return Config{
		Compliant:    true,
		Timing:       TimingEventual,
		Capability:   CapabilityFull,
		AuditEnabled: true,
		AuditPath:    auditPath,
	}
}

// Ptr returns a pointer to v; a helper for the override fields.
func Ptr[T any](v T) *T { return &v }
