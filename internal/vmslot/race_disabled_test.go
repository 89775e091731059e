//go:build !race

package vmslot

const raceEnabled = false
