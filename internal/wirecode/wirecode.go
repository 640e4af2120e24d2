// Package wirecode is the single table of RESP error-code prefixes the
// server emits and the client decodes. The server's errReply consults
// Code to choose a prefix for a compliance-layer error; the public SDK's
// error mapper (pkg/gdprkv) consults Split + the same constants to turn
// the prefix back into a typed sentinel. Because both directions share
// this table, a new error class added here is round-trippable by
// construction — the surfaces cannot drift apart.
package wirecode

import (
	"errors"
	"strings"

	"gdprstore/internal/core"
)

// Wire code prefixes. An error reply's text is "<CODE> <message>"; CODE
// is the first space-separated token.
const (
	// Err is the generic Redis-style error prefix, used when no more
	// specific code applies.
	Err = "ERR"
	// Denied reports an access-control rejection (Art. 25/32).
	Denied = "DENIED"
	// PurposeDenied reports a purpose-limitation rejection (Art. 5/21).
	PurposeDenied = "PURPOSEDENIED"
	// Policy reports a write that violates storage policy: missing owner,
	// missing retention bound, or disallowed location (Art. 5/46).
	Policy = "POLICY"
	// Erased reports an operation against a crypto-shredded owner (Art. 17).
	Erased = "ERASED"
	// Baseline reports a GDPR command against a non-compliant store.
	Baseline = "BASELINE"
	// ReadOnly is Redis's replica-mode write rejection prefix.
	ReadOnly = "READONLY"
	// Moved is the cluster redirection prefix: the key's slot lives on
	// another node. The text is "MOVED <slot> <host:port>", Redis's exact
	// shape, so cluster-aware clients can follow it.
	Moved = "MOVED"
	// CrossSlot rejects a multi-key command whose keys hash to different
	// slots (Redis's exact prefix).
	CrossSlot = "CROSSSLOT"
	// Ask is the one-shot migration redirection prefix: the key's slot is
	// mid-migration and this key has already moved. The text is
	// "ASK <slot> <host:port>", Redis's exact shape; the client retries
	// that one command at the target after an ASKING handshake, without
	// updating its slot map (ownership has not changed yet).
	Ask = "ASK"
)

// known is the set of prefixes Split recognises as codes.
var known = map[string]bool{
	Err: true, Denied: true, PurposeDenied: true, Policy: true,
	Erased: true, Baseline: true, ReadOnly: true,
	Moved: true, CrossSlot: true, Ask: true,
}

// Entry maps one compliance-layer sentinel to its wire code.
type Entry struct {
	// Target is the core sentinel matched with errors.Is.
	Target error
	// Code is the prefix the server writes before the error text.
	Code string
}

// Table is the server-side mapping, in match order. core.ErrNotFound is
// deliberately absent: the server reports a missing key as a null bulk
// string, not an error reply, exactly like Redis.
var Table = []Entry{
	{core.ErrDenied, Denied},
	{core.ErrPurposeDenied, PurposeDenied},
	{core.ErrNoOwner, Policy},
	{core.ErrNoTTL, Policy},
	{core.ErrLocationDenied, Policy},
	{core.ErrOwnerTooLong, Policy},
	{core.ErrErased, Erased},
	{core.ErrNotCompliant, Baseline},
}

// Code returns the wire code for err: the first Table entry err matches,
// or Err when none does.
func Code(err error) string {
	for _, e := range Table {
		if errors.Is(err, e.Target) {
			return e.Code
		}
	}
	return Err
}

// Split decodes an error reply's text into its code and message. Replies
// whose first token is not a known code are reported whole under Err, so
// free-form server errors still decode.
func Split(text string) (code, msg string) {
	head, rest, _ := strings.Cut(text, " ")
	if known[head] {
		return head, rest
	}
	return Err, text
}
