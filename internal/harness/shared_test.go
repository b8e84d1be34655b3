package harness

import (
	"bytes"
	"reflect"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/workload"
)

// TestSharedProgramsImmutable: every figure cell and fleet tenant of a
// benchmark runs the one program its Benchmark builds, and none of them
// writes to it. After the whole suite has run under all six figure
// configurations (two cells at a time) and as an identical fleet pair,
// each program still encodes to the same bytes, Build still returns the
// same *guest.Program, and the decode stored in it still equals a fresh
// decode of the same bytes.
func TestSharedProgramsImmutable(t *testing.T) {
	suite := workload.Suite()
	progs := make([]*guest.Program, len(suite))
	images := make([][]byte, len(suite))
	for i, bm := range suite {
		progs[i] = bm.Build()
		images[i] = guest.EncodeProgram(progs[i])
	}

	r := NewRunner(suite)
	r.Parallelism = 2
	var cells []Cell
	// The six configurations the figures run every benchmark under.
	for _, name := range []string{CfgNoHW, CfgSMARQ64, CfgSMARQ16, CfgALAT, "efficeon", CfgNoStRe} {
		cfg, err := ParseConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		r.AddConfig(name, cfg)
		for _, bm := range suite {
			cells = append(cells, Cell{bm.Name, name})
		}
	}
	r.Warm(cells)
	for _, c := range cells {
		if _, err := r.Run(c.Bench, c.Config); err != nil {
			t.Fatal(err)
		}
	}
	for _, bm := range suite {
		if _, err := RunFleet(FleetConfig{Tenants: 2, Mix: []string{bm.Name}, CompileWorkers: 1}); err != nil {
			t.Fatal(err)
		}
	}

	for i, bm := range suite {
		if bm.Build() != progs[i] {
			t.Errorf("%s: Build returned a different program after the runs", bm.Name)
		}
		if !bytes.Equal(guest.EncodeProgram(progs[i]), images[i]) {
			t.Errorf("%s: a run modified the shared program", bm.Name)
		}
		fresh, err := guest.DecodeProgram(images[i])
		if err != nil {
			t.Fatal(err)
		}
		interp.New(fresh, &guest.State{}, guest.NewMemory(bm.MemSize))
		// Both slots are filled, so Decoded returns them without decoding.
		if !reflect.DeepEqual(progs[i].Decoded(nil), fresh.Decoded(nil)) {
			t.Errorf("%s: a run modified the shared decoded code", bm.Name)
		}
	}
}
