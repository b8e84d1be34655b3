//go:build !race

package vliw_test

const raceEnabled = false
