//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this
// build: allocation-count assertions are skipped, since the detector
// itself allocates on instrumented paths.
const raceEnabled = true
