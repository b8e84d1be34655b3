package dynopt

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// eventCount is a telemetry sink that only counts the events it drains.
type eventCount int

func (n *eventCount) WriteEvents(evs []telemetry.Event) error {
	*n += eventCount(len(evs))
	return nil
}

func (*eventCount) Close() error { return nil }

// TestInspectRegionReproducesInstalledCode rebuilds every region a run
// has installed halfway and at its end, for the whole suite under the six
// paper configurations and under a chaos mix compiled inline and on two
// workers. Each rebuild must reproduce the installed code (InspectRegion
// checks the checksum), show fn a view of exactly that code, and leave
// Stats, the install records, the event stream and the metrics untouched.
// A block without installed code is an ErrNoCode error.
func TestInspectRegionReproducesInstalledCode(t *testing.T) {
	arms := map[string]Config{
		"nohw":           ConfigNoHW(),
		"smarq64":        ConfigSMARQ(64),
		"smarq16":        ConfigSMARQ(16),
		"alat":           ConfigALAT(),
		"efficeon":       ConfigEfficeon(),
		"nostorereorder": ConfigNoStoreReorder(),
	}
	for _, workers := range []int{0, 2} {
		cfg := ConfigSMARQ(64)
		cfg.Chaos = faultinject.Default(7)
		cfg.Compile.Workers = workers
		arms[fmt.Sprintf("chaos7-workers%d", workers)] = cfg
	}
	for name, cfg := range arms {
		t.Run(name, func(t *testing.T) {
			for _, bm := range workload.Suite() {
				var events eventCount
				tel := &telemetry.Telemetry{
					Events:  telemetry.NewTracer(0, &events),
					Metrics: telemetry.NewRegistry(),
				}
				// Inspect at two stops, halfway and where the run ends,
				// since a chaos run may drop its last region before its
				// end. A first run without telemetry finds halfway.
				plain := cfg
				plain.Telemetry = nil
				first := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), plain)
				if _, err := first.Run(bm.MaxInsts); err != nil {
					t.Fatalf("%s: %v", bm.Name, err)
				}
				half := uint64(first.Stats.GuestInsts) / 2
				cfg.Telemetry = tel
				sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
				inspected := 0
				for _, stop := range []uint64{half, bm.MaxInsts} {
					if _, err := sys.Run(stop); err != nil {
						t.Fatalf("%s: %v", bm.Name, err)
					}
					inspected += inspectInstalled(t, bm.Name, sys, tel, &events)
				}
				if inspected == 0 {
					t.Fatalf("%s: run left no region installed at either stop", bm.Name)
				}
			}
		})
	}
}

// inspectInstalled rebuilds every region sys has installed with
// InspectRegion, checks each view and that inspecting changed nothing,
// and returns how many regions it inspected.
func inspectInstalled(t *testing.T, name string, sys *System, tel *telemetry.Telemetry, events *eventCount) int {
	t.Helper()
	var metricsBefore, metricsAfter bytes.Buffer
	if err := tel.Metrics.WriteJSON(&metricsBefore); err != nil {
		t.Fatal(err)
	}
	if err := tel.Events.Flush(); err != nil {
		t.Fatal(err)
	}
	eventsBefore := *events

	inspected := 0
	for entry := range sys.disp {
		code := sys.disp[entry].code
		if code == nil {
			if err := sys.InspectRegion(entry, nil); !errors.Is(err, ErrNoCode) {
				t.Fatalf("%s: B%d has no code, InspectRegion = %v, want ErrNoCode", name, entry, err)
			}
			continue
		}
		before := sys.Stats
		before.Regions = slices.Clone(sys.Stats.Regions)
		store := outputStore.Stats()
		calls := 0
		err := sys.InspectRegion(entry, func(c *Compilation) {
			calls++
			if c.Code.Checksum() != code.out.cr.Checksum() {
				t.Errorf("%s: B%d view shows code other than the installed code", name, entry)
			}
			if c.Superblock.Entry != entry || len(c.Schedule.Seq) != code.out.cr.Ops() ||
				c.Region == nil || c.Deps == nil {
				t.Errorf("%s: B%d view (entry B%d, %d scheduled ops) does not describe the installed %d ops",
					name, entry, c.Superblock.Entry, len(c.Schedule.Seq), code.out.cr.Ops())
			}
		})
		if err != nil {
			t.Fatalf("%s: B%d: %v", name, entry, err)
		}
		if calls != 1 {
			t.Fatalf("%s: B%d: fn called %d times, want 1", name, entry, calls)
		}
		if !reflect.DeepEqual(before, sys.Stats) {
			t.Fatalf("%s: B%d: InspectRegion changed Stats", name, entry)
		}
		if outputStore.Stats() != store || sys.disp[entry].code != code {
			t.Fatalf("%s: B%d: InspectRegion touched the output store or changed the installed code", name, entry)
		}
		inspected++
	}
	for _, entry := range []int{-1, len(sys.disp)} {
		if err := sys.InspectRegion(entry, nil); !errors.Is(err, ErrNoCode) {
			t.Fatalf("%s: InspectRegion(%d) = %v, want ErrNoCode", name, entry, err)
		}
	}
	if err := tel.Events.Flush(); err != nil {
		t.Fatal(err)
	}
	if *events != eventsBefore {
		t.Fatalf("%s: InspectRegion emitted %d events", name, *events-eventsBefore)
	}
	if err := tel.Metrics.WriteJSON(&metricsAfter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metricsBefore.Bytes(), metricsAfter.Bytes()) {
		t.Fatalf("%s: InspectRegion changed the metrics", name)
	}
	return inspected
}

// TestInspectRegionAfterInputsChange: InspectRegion rebuilds from the
// input the installed code was compiled from, not from the region's
// current inputs. A queued promotion-style recompile to the conservative
// tier keeps the old code installed until its install point; meanwhile
// the rebuild must still reproduce the installed code. The region is one
// of ammp's whose conservative code differs from its installed code.
func TestInspectRegionAfterInputsChange(t *testing.T) {
	bm, _ := workload.ByName("ammp")
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 1
	sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	t.Cleanup(sys.cq.jobs.Wait)
	lendExec(t, sys)
	for e, de := range sys.disp {
		if de.code == nil || de.rec.Level == TierConservative {
			continue
		}
		installed := de.code.out
		de.rec.Level = TierConservative
		in, err := sys.newCompileInput(e)
		if err != nil {
			t.Fatal(err)
		}
		if runCompilePipeline(&compileOutput{in: in}, nil).cr.Checksum() == installed.cr.Checksum() {
			continue
		}
		sys.recompileRegion(e, false)
		if sys.disp[e].code.out != installed {
			t.Fatal("the queued recompile replaced the installed code before its install point")
		}
		if err := sys.InspectRegion(e, nil); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no installed region compiles to other code at the conservative tier")
}
