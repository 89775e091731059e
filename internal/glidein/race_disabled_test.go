//go:build !race

package glidein

const raceEnabled = false
