// Package cluster implements the hash-slot partitioning layer of cluster
// mode: a fixed space of 1024 slots, a Redis-compatible CRC16 key hash
// with hash-tag extraction, and a static topology map assigning slot
// ranges to named primary nodes.
//
// GDPR placement rationale: personal-data keys follow the convention
// "pd:{owner}:rest" (any key with a {tag} hashes on the tag alone), so
// every record of one data subject lands in one slot — and the rights
// operations keyed by the bare owner name (FORGETUSER alice) hash to that
// same slot, because Slot("alice") == Slot("pd:{alice}:rec1"). Erasure
// and access therefore stay node-local. In cluster mode the server
// enforces it: a compliant write whose key does not hash to its owner's
// slot is refused with CROSSSLOT. Keys without an owner (raw SET) spread
// freely. See DESIGN.md §10.
package cluster

import "strings"

// NumSlots is the size of the hash-slot space. 1024 (not Redis's 16384)
// keeps CLUSTER SLOTS replies and per-slot bookkeeping small at the fleet
// sizes this system targets while still dividing evenly across any
// realistic node count.
const NumSlots = 1024

// Slot maps a key to its hash slot. When the key contains a non-empty
// hash tag — a "{...}" section, first occurrence wins — only the tag
// content is hashed, so callers control co-location exactly like in Redis
// Cluster: "pd:{alice}:email" and "pd:{alice}:phone" share a slot, and
// both share it with the bare owner key "alice".
func Slot(key string) uint16 {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if j := strings.IndexByte(key[i+1:], '}'); j > 0 {
			key = key[i+1 : i+1+j]
		}
	}
	return crc16([]byte(key)) % NumSlots
}
