//go:build race

package waterwheel

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
