//go:build !race

package dispatcher

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
