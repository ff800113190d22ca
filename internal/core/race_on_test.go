//go:build race

package core

// raceEnabled says the test binary runs under the race detector.
const raceEnabled = true
