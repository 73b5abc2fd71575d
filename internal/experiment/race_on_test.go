//go:build race

package experiment

// raceEnabled: the race detector's shadow state moves allocation
// figures, so allocation pins do not hold under it.
const raceEnabled = true
