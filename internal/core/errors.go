package core

import "errors"

// Errors returned by the compliance layer. They are distinguishable with
// errors.Is so callers (and the RESP server) can map them to outcomes.
var (
	// ErrNotFound reports a missing (or expired) key.
	ErrNotFound = errors.New("core: key not found")
	// ErrDenied reports an access-control rejection (Art. 25/32).
	ErrDenied = errors.New("core: access denied")
	// ErrPurposeDenied reports a purpose-limitation rejection: the stated
	// purpose is not consented to, or has been objected to (Art. 5/21).
	ErrPurposeDenied = errors.New("core: purpose not permitted")
	// ErrNoOwner reports a write of personal data without a data subject.
	ErrNoOwner = errors.New("core: record has no owner")
	// ErrNoTTL reports a write without a retention bound under full
	// compliance (Art. 5 storage limitation).
	ErrNoTTL = errors.New("core: record has no retention bound (TTL required)")
	// ErrLocationDenied reports a write to a disallowed region (Art. 46).
	ErrLocationDenied = errors.New("core: storage location not permitted")
	// ErrErased reports an operation against an owner whose data was
	// erased and whose key was crypto-shredded (Art. 17).
	ErrErased = errors.New("core: owner data erased (key shredded)")
	// ErrOwnerTooLong reports a write, under envelope encryption, for an
	// owner whose name does not fit a key-file slot (aof.MaxKeyOwner).
	ErrOwnerTooLong = errors.New("core: owner name too long for a key slot")
	// ErrReservedKey reports a key only the store writes, an owner record's.
	ErrReservedKey = errors.New("core: key is reserved")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("core: store closed")
	// ErrNotCompliant reports a GDPR operation against a store running in
	// baseline (non-compliant) mode.
	ErrNotCompliant = errors.New("core: store is running in baseline mode")
	// ErrRetiredFormat reports a journal or migration record in a form an
	// earlier release wrote and no writer of this one emits (DESIGN.md
	// §17). The error wrapping it names the form and the upgrade step.
	ErrRetiredFormat = errors.New("core: retired record format")
)
