//go:build !race

package experiments

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
