//go:build race

package resolver

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so allocation pins do not hold.
const raceEnabled = true
