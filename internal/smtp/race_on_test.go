//go:build race

package smtp

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so byte-exact pool pins do not hold.
const raceEnabled = true
