//go:build !race

package pvfs

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
