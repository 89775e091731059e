//go:build race

package jdl

// raceEnabled lets the allocation test skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
