//go:build race

package constraint

// raceEnabled relaxes the pooled-graph allocation pin: under the race
// detector sync.Pool deliberately drops a fraction of Puts, so a Get
// occasionally builds a fresh graph even in steady state.
const raceEnabled = true
