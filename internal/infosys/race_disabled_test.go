//go:build !race

package infosys

const raceEnabled = false
