package interp

import (
	"reflect"
	"sync"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/workload"
)

// TestNewSharesDecode: every interpreter over one program, including ones
// raced into existence from several goroutines, runs the one decode the
// first New stored in the program. Another program gets its own decode,
// even when it has the same instructions.
func TestNewSharesDecode(t *testing.T) {
	prog := fusionProgram()
	its := make([]*Interpreter, 8)
	var wg sync.WaitGroup
	for i := range its {
		wg.Add(1)
		go func() {
			defer wg.Done()
			its[i] = New(prog, &guest.State{}, guest.NewMemory(256))
		}()
	}
	wg.Wait()
	first := &its[0].dec
	for i, it := range its[1:] {
		if &it.dec.code[0] != &first.code[0] || &it.dec.blocks[0] != &first.blocks[0] {
			t.Errorf("interpreter %d decoded the program again", i+1)
		}
	}

	img, err := guest.DecodeProgram(guest.EncodeProgram(prog))
	if err != nil {
		t.Fatal(err)
	}
	other := New(img, &guest.State{}, guest.NewMemory(256))
	if &other.dec.code[0] == &first.code[0] {
		t.Error("a distinct program shares another program's decode")
	}
	if !reflect.DeepEqual(other.dec, *first) {
		t.Error("the same instructions decoded differently")
	}
}

// newSink keeps New's result on the heap in TestNewAfterDecodeAllocs, as
// it is for every real caller.
var newSink *Interpreter

// TestNewAfterDecodeAllocs pins what New costs once the program is
// decoded: the interpreter and its profile (Interpreter, Profile and the
// profile's two per-block tables), however large the program is.
func TestNewAfterDecodeAllocs(t *testing.T) {
	const want = 4
	ammp, _ := workload.ByName("ammp")
	for name, prog := range map[string]*guest.Program{
		"countdown": countdownProgram(3),
		"ammp":      ammp.Build(),
	} {
		st, mem := &guest.State{}, guest.NewMemory(256)
		newSink = New(prog, st, mem) // decodes, unless already decoded
		got := testing.AllocsPerRun(100, func() { newSink = New(prog, st, mem) })
		if got != want {
			t.Errorf("%s (%d insts): New over a decoded program allocates %v times, want %d",
				name, prog.NumInsts(), got, want)
		}
	}
}

// TestSharedDecodeMatchesReference: a hand-built program literal and a
// guest.DecodeProgram program each run bit-exact against the guest.Exec
// reference, on two decoded runs over the one decode stored in the
// program.
func TestSharedDecodeMatchesReference(t *testing.T) {
	literal := &guest.Program{Blocks: []*guest.Block{
		{ID: 0, Insts: []guest.Inst{
			{Op: guest.Li, Rd: 1, Imm: 50},
			{Op: guest.Li, Rd: 2, Imm: 64},
			{Op: guest.FLi, Rd: 1, FImm: 0.25},
		}},
		{ID: 1, Insts: []guest.Inst{
			{Op: guest.Ld8, Rd: 3, Rs1: 2},
			{Op: guest.Addi, Rd: 3, Rs1: 3, Imm: 7},
			{Op: guest.St8, Rd: 3, Rs1: 2},
			{Op: guest.FAdd, Rd: 2, Rs1: 2, Rs2: 1},
			{Op: guest.Addi, Rd: 1, Rs1: 1, Imm: -1},
			{Op: guest.Bne, Rs1: 1, Rs2: 0, Target: 1},
		}},
		{ID: 2, Insts: []guest.Inst{{Op: guest.FSt8, Rd: 2, Rs1: 2, Imm: 8}, {Op: guest.Halt}}},
	}}
	equake, _ := workload.ByName("equake")
	img, err := guest.DecodeProgram(guest.EncodeProgram(equake.Build()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		prog     *guest.Program
		memSize  int
		maxInsts uint64
	}{
		{"literal", literal, 256, 1_000_000},
		{"decoded image", img, equake.MemSize, equake.MaxInsts},
	} {
		ref, haltedRef, errRef := runEngine(t, c.prog, c.memSize, c.maxInsts, true)
		if !haltedRef || errRef != nil {
			t.Fatalf("%s reference run: halted=%v err=%v", c.name, haltedRef, errRef)
		}
		for _, run := range []string{"first", "second"} {
			dec, haltedDec, errDec := runEngine(t, c.prog, c.memSize, c.maxInsts, false)
			diffEngines(t, c.name+" "+run+" run", c.prog, dec, ref, haltedDec, haltedRef, errDec, errRef)
		}
	}
}
