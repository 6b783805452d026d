//go:build race

package mpiio

// raceEnabled reports a -race build: the race detector instruments
// allocations, so exact allocation bounds do not hold under it.
const raceEnabled = true
