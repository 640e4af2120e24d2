package gdprkv

import (
	"errors"

	"gdprstore/internal/wirecode"
)

// Sentinel errors. Server rejections decode to a *ServerError that
// matches exactly one of these under errors.Is, so callers branch on
// error class without parsing reply text:
//
//	if errors.Is(err, gdprkv.ErrDenied) { ... }
var (
	// ErrNotFound reports a missing (or expired) key. The server signals
	// it as a null bulk string; typed read helpers surface it as this
	// sentinel.
	ErrNotFound = errors.New("gdprkv: key not found")
	// ErrDenied reports an access-control rejection (Art. 25/32),
	// including GDPR commands issued before the AUTH handshake on a store
	// that enforces ACLs.
	ErrDenied = errors.New("gdprkv: access denied")
	// ErrBadPurpose reports a purpose-limitation rejection: the declared
	// purpose is not consented to, or the subject objected (Art. 5/21).
	ErrBadPurpose = errors.New("gdprkv: purpose not permitted")
	// ErrPolicy reports a write rejected by storage policy: no owner, no
	// retention bound, or a disallowed location (Art. 5/46).
	ErrPolicy = errors.New("gdprkv: policy violation")
	// ErrErased reports an operation against an owner whose data was
	// erased and whose key material was shredded (Art. 17).
	ErrErased = errors.New("gdprkv: owner data erased")
	// ErrBaseline reports a GDPR command against a store running in
	// baseline (non-compliant) mode.
	ErrBaseline = errors.New("gdprkv: store is running in baseline mode")
	// ErrReadOnly reports a write sent to a read-only replica. A client
	// only sees it when its address points at a replica (e.g. after a
	// failover swapped roles).
	ErrReadOnly = errors.New("gdprkv: write against a read-only replica")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("gdprkv: client is closed")
	// ErrCrossSlot reports a batch whose keys hash to different cluster
	// slots, or, in cluster mode, a GPut/GMPut whose key does not hash to
	// its owner's slot (tag personal keys "pd:{owner}:..."). The client
	// splits its own batch helpers per slot, so the first surfaces only
	// from hand-built Do/DoArgs batches.
	ErrCrossSlot = errors.New("gdprkv: keys hash to different cluster slots")
	// ErrMoved reports a MOVED redirect the client did not (or could no
	// longer, budget exhausted) follow. Seeing it usually means the slot
	// map is flapping or the client is not in cluster mode. A replica
	// answers every data read with it, naming its primary.
	ErrMoved = errors.New("gdprkv: key moved to another cluster node")
	// ErrAsk reports an ASK redirect the client did not (or could no
	// longer, budget exhausted) follow: the key's slot is mid-migration
	// and this key already lives at the destination. The client normally
	// follows these transparently (ASKING handshake, no slot-map change).
	ErrAsk = errors.New("gdprkv: key is migrating to another cluster node")
)

// sentinelByCode maps a wire code to the sentinel its *ServerError
// matches. wirecode.Err deliberately has no entry: a generic ERR carries
// no class beyond its message.
var sentinelByCode = map[string]error{
	wirecode.Denied:        ErrDenied,
	wirecode.PurposeDenied: ErrBadPurpose,
	wirecode.Policy:        ErrPolicy,
	wirecode.Erased:        ErrErased,
	wirecode.Baseline:      ErrBaseline,
	wirecode.ReadOnly:      ErrReadOnly,
	wirecode.CrossSlot:     ErrCrossSlot,
	wirecode.Moved:         ErrMoved,
	wirecode.Ask:           ErrAsk,
}

// ServerError is a decoded error reply from the server. It preserves the
// wire code and the server's message, and matches the sentinel for its
// code under errors.Is.
type ServerError struct {
	// Code is the reply's wire code prefix (ERR, DENIED, POLICY, ...).
	Code string
	// Message is the reply text after the code.
	Message string
}

// Error implements error.
func (e *ServerError) Error() string {
	if e.Message == "" {
		return "gdprkv: server: " + e.Code
	}
	return "gdprkv: server: " + e.Code + " " + e.Message
}

// Is reports whether target is the sentinel for this error's wire code,
// wiring *ServerError into errors.Is.
func (e *ServerError) Is(target error) bool {
	s, ok := sentinelByCode[e.Code]
	return ok && s == target
}

// wireError decodes an error reply's text into a *ServerError using the
// same code table the server encodes with (internal/wirecode). This is
// the single RESP-error → Go-error mapping point for the whole SDK: the
// scalar helpers, the batch helpers, and Do all route error replies here.
func wireError(text string) error {
	code, msg := wirecode.Split(text)
	return &ServerError{Code: code, Message: msg}
}
