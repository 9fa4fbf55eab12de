//go:build race

package serve

// raceEnabled reports a race-detector build, under which sync.Pool
// discards items at random and pooled paths allocate.
const raceEnabled = true
