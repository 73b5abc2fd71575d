//go:build race

package dnsserver

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so pool pins do not hold.
const raceEnabled = true
