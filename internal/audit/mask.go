package audit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
)

// maskPrefix tags pseudonymized fields so tooling can tell a pseudonym
// from a value that was never masked.
const maskPrefix = "pii:"

// Pseudonym returns what a masked trail holds in place of v: HMAC-SHA256 of
// v under the mask key, truncated to 128 bits, hex-encoded behind
// maskPrefix. It is v itself when the trail is unmasked or v is empty.
//
// Pseudonyms are deterministic, so the trail still supports equality
// queries (every operation on one owner carries the same pseudonym), and
// unlinkable to the plaintext without the key. The trail keeps no table
// back to the names: a reader that needs one derives it from what it
// already holds, as core.Store.Breach does for live subjects, so an erased
// subject stays a pseudonym.
func (t *Trail) Pseudonym(v string) string {
	if t.maskKey == nil || v == "" {
		return v
	}
	mac := hmac.New(sha256.New, t.maskKey)
	mac.Write([]byte(v))
	return maskPrefix + hex.EncodeToString(mac.Sum(nil)[:16])
}

// mask returns r with Key, Owner and Detail pseudonymized, before any sink
// sees it: without it the trail is a second, plaintext copy of personal
// data. Actor, Op, Purpose and Outcome are operational (not data-subject)
// fields and stay legible for monitoring.
func (t *Trail) mask(r Record) Record {
	r.Key, r.Owner, r.Detail = t.Pseudonym(r.Key), t.Pseudonym(r.Owner), t.Pseudonym(r.Detail)
	return r
}
