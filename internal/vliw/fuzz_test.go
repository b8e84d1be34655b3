package vliw_test

import (
	"fmt"
	"math/rand"
	"testing"

	"smarq/internal/vliw"
)

// FuzzExecuteDecoded is the executor's differential fuzz: a counted-loop
// program built the way randomRegionProgram builds the differential
// test's, compiled under every hardware mode, then entered from random
// states through both the decoded engine and the reference executor,
// which must agree on everything diffEngines compares — outcome, next
// block, conflict, ops executed, registers bit for bit, memory and
// Checked(). progSeed picks the program, entrySeed the entry states and
// memory contents.
func FuzzExecuteDecoded(f *testing.F) {
	for _, seed := range [][2]int64{{1, 1}, {42, 7}, {4000, 31}, {31337, 5}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, progSeed, entrySeed int64) {
		var ctx vliw.ExecContext
		for _, m := range hwModes {
			// Rebuild the program per mode: translation annotates it.
			prog, loop := randomRegionProgram(rand.New(rand.NewSource(progSeed)))
			seq, reg, insts, err := fuzzSchedule(prog, loop, m.mode, m.regs)
			if err != nil {
				continue // an unformable or unschedulable region
			}
			cr := vliw.DefaultConfig().Compile(seq, reg, insts)
			if err := cr.Validate(); err != nil {
				t.Fatalf("prog %d/%s: compiled region fails Validate: %v", progSeed, m.name, err)
			}
			rng := rand.New(rand.NewSource(entrySeed))
			for entry := 0; entry < 4; entry++ {
				tag := fmt.Sprintf("prog %d/%s entry %d/%d", progSeed, m.name, entrySeed, entry)
				diffEngines(t, tag, &ctx, cr, seq, reg, randExecState(rng), entrySeed+int64(entry), m.det)
			}
		}
	})
}
