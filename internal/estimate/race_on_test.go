//go:build race

package estimate

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool deliberately drops a fraction of Puts to widen
// interleaving coverage, so allocation gates on pooled scratch are
// skipped.
const raceEnabled = true
