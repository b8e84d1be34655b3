package dynopt

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/region"
)

// withRefPipeline runs fn with the compile path swapped to the retained
// reference pipeline. Safe to do between runs: System.Run waits for its
// compile jobs before returning, so no goroutine reads the hook
// concurrently with the swap.
func withRefPipeline(fn func()) {
	saved := compilePipeline
	compilePipeline = runCompilePipelineRef
	defer func() { compilePipeline = saved }()
	fn()
}

// diffConfigs covers every hardware mode the scheduler and allocator
// dispatch on.
func diffConfigs() map[string]Config {
	return map[string]Config{
		"smarq64":  ConfigSMARQ(64),
		"smarq16":  ConfigSMARQ(16),
		"alat":     ConfigALAT(),
		"efficeon": ConfigEfficeon(),
		"nohw":     ConfigNoHW(),
	}
}

// TestCompileFlatMatchesReference is the tentpole's correctness gate:
// the flat-arena pipeline (pooled IR arena, CLZ-bitmap scheduler, pooled
// alias/deps/opt structures, decoded install) must be observationally
// identical to the retained reference pipeline (private allocations,
// heap scheduler, no pooling) — same schedules, alias assignments,
// stats and guest state, across hardware modes and chaos
// seeds.
func TestCompileFlatMatchesReference(t *testing.T) {
	for name, cfg := range diffConfigs() {
		for _, arm := range []struct {
			name string
			seed int64
		}{{"plain", 0}, {"chaos", 11}, {"chaos2", 29}} {
			t.Run(name+"/"+arm.name, func(t *testing.T) {
				mk := func() Config {
					c := cfg
					c.Compile.Workers = 2
					if arm.seed != 0 {
						c.Chaos = faultinject.Default(arm.seed)
						c.CheckInvariants = true
					}
					return c
				}
				prog := func() *guest.Program { return aliasingProgram(1500, 7) }
				flat := runInstrumented(t, prog(), 1<<16, mk())
				var ref *bgRun
				withRefPipeline(func() {
					ref = runInstrumented(t, prog(), 1<<16, mk())
				})
				if !reflect.DeepEqual(flat.sys.Stats, ref.sys.Stats) {
					t.Errorf("stats diverge:\nflat: %+v\nref:  %+v", flat.sys.Stats, ref.sys.Stats)
				}
				if !bytes.Equal(flat.trace, ref.trace) {
					t.Error("event trace diverges between flat and reference pipelines")
				}
				if !bytes.Equal(flat.metrics, ref.metrics) {
					t.Error("metrics snapshot diverges between flat and reference pipelines")
				}
				snap := faultinject.Capture(ref.st, ref.mem)
				if err := snap.Verify(flat.st, flat.mem); err != nil {
					t.Errorf("guest state diverges: %v", err)
				}

				// Per-compile differential over every superblock the run
				// formed: both pipelines on identical inputs must agree
				// field-for-field on the compiled region, alias
				// annotations, allocation stats and working sets, and
				// must leave the input untouched: its sets, and the
				// shared superblocks (CheckTraces).
				for entry, de := range flat.sys.disp {
					if de.rec == nil || de.rec.sb == nil {
						continue
					}
					in, err := flat.sys.newCompileInput(entry)
					if err != nil {
						t.Fatal(err)
					}
					sets := in.key.sets
					fout := runCompilePipeline(&compileOutput{in: in}, nil)
					rout := runCompilePipelineRef(&compileOutput{in: in})
					if got := encodeSets(in.pins, in.blacklist); got != sets {
						t.Errorf("B%d: pipeline mutated its input's sets", entry)
					}
					compareOutputs(t, entry, fout, rout)
				}
				if _, err := region.CheckTraces(flat.sys.prog); err != nil {
					t.Errorf("a pipeline wrote to a superblock: %v", err)
				}
			})
		}
	}
}

func compareOutputs(t *testing.T, entry int, flat, ref *compileOutput) {
	t.Helper()
	pfx := fmt.Sprintf("B%d: ", entry)
	if (flat.err == nil) != (ref.err == nil) {
		t.Fatalf("%serr mismatch: %v vs %v", pfx, flat.err, ref.err)
	}
	if flat.err != nil {
		if flat.err.Error() != ref.err.Error() {
			t.Errorf("%serror text %q vs %q", pfx, flat.err, ref.err)
		}
		return
	}
	if flat.alloc != ref.alloc {
		t.Errorf("%salloc stats %+v vs %+v", pfx, flat.alloc, ref.alloc)
	}
	if flat.working != ref.working {
		t.Errorf("%sworking sets %+v vs %+v", pfx, flat.working, ref.working)
	}
	if flat.numOps != ref.numOps || flat.overflowRetries != ref.overflowRetries {
		t.Errorf("%sscalar outputs (%d,%d) vs (%d,%d)", pfx,
			flat.numOps, flat.overflowRetries, ref.numOps, ref.overflowRetries)
	}
	// The compiled region is the decoded stream plus its header: equal
	// values mean every op, operand, alias annotation and live-out agree.
	if fcr, rcr := flat.cr, ref.cr; !reflect.DeepEqual(fcr, rcr) {
		t.Errorf("%scompiled regions differ: %d ops, %d cycles, checksum %#x vs %d ops, %d cycles, checksum %#x", pfx,
			fcr.Ops(), fcr.Cycles, fcr.Checksum(), rcr.Ops(), rcr.Cycles, rcr.Checksum())
	}
}
