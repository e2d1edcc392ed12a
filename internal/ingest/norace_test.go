//go:build !race

package ingest

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
