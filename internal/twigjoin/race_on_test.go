//go:build race

package twigjoin

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool deliberately drops a fraction of Puts to widen
// interleaving coverage, so the enumerator's pooled scratch is
// reallocated and its AllocsPerRun assertions are skipped.
const raceEnabled = true
