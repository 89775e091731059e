//go:build race

package infosys

// raceEnabled lets the allocation budgets skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
