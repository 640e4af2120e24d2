package wirecode

import (
	"fmt"
	"testing"

	"gdprstore/internal/core"
)

func TestCodeMapsEveryTableEntry(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{core.ErrDenied, Denied},
		{core.ErrPurposeDenied, PurposeDenied},
		{core.ErrNoOwner, Policy},
		{core.ErrNoTTL, Policy},
		{core.ErrLocationDenied, Policy},
		{core.ErrOwnerTooLong, Policy},
		{core.ErrErased, Erased},
		{core.ErrNotCompliant, Baseline},
		{fmt.Errorf("anything else"), Err},
	}
	for _, c := range cases {
		if got := Code(c.err); got != c.want {
			t.Errorf("Code(%v) = %q, want %q", c.err, got, c.want)
		}
		// Wrapped errors map identically (handlers wrap with %w).
		if got := Code(fmt.Errorf("ctx: %w", c.err)); got != c.want {
			t.Errorf("Code(wrapped %v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestSplitRoundTripsCode asserts the decode direction recognises every
// code the encode direction can produce — the drift the shared table is
// there to prevent.
func TestSplitRoundTripsCode(t *testing.T) {
	for _, e := range Table {
		text := e.Code + " " + e.Target.Error()
		code, msg := Split(text)
		if code != e.Code || msg != e.Target.Error() {
			t.Errorf("Split(%q) = %q, %q", text, code, msg)
		}
	}
	if code, msg := Split("READONLY You can't write against a read only replica."); code != ReadOnly ||
		msg != "You can't write against a read only replica." {
		t.Errorf("Split(READONLY ...) = %q, %q", code, msg)
	}
	// Free-form text without a known prefix decodes whole under Err.
	if code, msg := Split("something unprefixed went wrong"); code != Err ||
		msg != "something unprefixed went wrong" {
		t.Errorf("Split(unprefixed) = %q, %q", code, msg)
	}
	if code, msg := Split("ERR wrong number of arguments"); code != Err || msg != "wrong number of arguments" {
		t.Errorf("Split(ERR ...) = %q, %q", code, msg)
	}
}
