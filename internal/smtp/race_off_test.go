//go:build !race

package smtp

const raceEnabled = false
