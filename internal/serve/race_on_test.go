//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool deliberately drops a fraction of Puts to widen
// interleaving coverage, so the response encoders are reallocated and
// the AllocsPerRun gate is skipped.
const raceEnabled = true
