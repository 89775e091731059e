//go:build !race

package jdl

const raceEnabled = false
