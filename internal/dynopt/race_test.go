//go:build race

package dynopt

// raceEnabled widens steady-state allocation budgets: under the race
// detector sync.Pool deliberately drops a fraction of Puts, so pooled
// scratch (the executor scratch every Run borrows) occasionally
// reallocates even in steady state.
const raceEnabled = true
