//go:build race

package replan

// raceEnabled reports a race-detector build, under which sync.Pool
// discards items at random and pooled paths allocate.
const raceEnabled = true
