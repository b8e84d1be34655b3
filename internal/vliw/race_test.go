//go:build race

package vliw_test

// raceEnabled lifts exact allocation pins: under the race detector
// sync.Pool deliberately drops a fraction of Puts, so pooled scratch
// occasionally reallocates even in steady state.
const raceEnabled = true
