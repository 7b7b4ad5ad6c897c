//go:build race

package experiments

// raceEnabled reports a race-detector build, whose sync.Pool drops a random
// share of Puts and so makes allocation counts vary run to run.
const raceEnabled = true
