//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, under which a sync.Pool drops a quarter of what it is given, so
// a reused report is not always there to reuse.
const raceEnabled = true
