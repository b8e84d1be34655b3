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
// left installed, for the whole suite under the six paper configurations
// and under a chaos mix compiled inline and on two workers. Each rebuild
// must reproduce the installed code (InspectRegion checks the checksum),
// show fn a view of exactly that code, and leave Stats, the install
// records, the event stream and the metrics untouched. A block without
// installed code is an ErrNoCode error.
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
				cfg.Telemetry = tel
				sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
				if _, err := sys.Run(bm.MaxInsts); err != nil {
					t.Fatalf("%s: %v", bm.Name, err)
				}
				var metricsBefore, metricsAfter bytes.Buffer
				if err := tel.Metrics.WriteJSON(&metricsBefore); err != nil {
					t.Fatal(err)
				}
				if err := tel.Events.Flush(); err != nil {
					t.Fatal(err)
				}
				eventsBefore := events

				inspected := 0
				for entry := range sys.disp {
					code := sys.disp[entry].code
					if code == nil {
						if err := sys.InspectRegion(entry, nil); !errors.Is(err, ErrNoCode) {
							t.Fatalf("%s: B%d has no code, InspectRegion = %v, want ErrNoCode", bm.Name, entry, err)
						}
						continue
					}
					before := sys.Stats
					before.Regions = slices.Clone(sys.Stats.Regions)
					records := sys.disp[entry].rec.installs
					calls := 0
					err := sys.InspectRegion(entry, func(c *Compilation) {
						calls++
						if c.Code.Checksum() != code.cr.Checksum() {
							t.Errorf("%s: B%d view shows code other than the installed code", bm.Name, entry)
						}
						if c.Superblock.Entry != entry || len(c.Schedule.Seq) != code.cr.Ops() ||
							c.Region == nil || c.Deps == nil {
							t.Errorf("%s: B%d view (entry B%d, %d scheduled ops) does not describe the installed %d ops",
								bm.Name, entry, c.Superblock.Entry, len(c.Schedule.Seq), code.cr.Ops())
						}
					})
					if err != nil {
						t.Fatalf("%s: B%d: %v", bm.Name, entry, err)
					}
					if calls != 1 {
						t.Fatalf("%s: B%d: fn called %d times, want 1", bm.Name, entry, calls)
					}
					if !reflect.DeepEqual(before, sys.Stats) {
						t.Fatalf("%s: B%d: InspectRegion changed Stats", bm.Name, entry)
					}
					if sys.disp[entry].rec.installs != records || sys.disp[entry].code != code {
						t.Fatalf("%s: B%d: InspectRegion changed the install records or the installed code", bm.Name, entry)
					}
					inspected++
				}
				if inspected == 0 {
					t.Fatalf("%s: run left no region installed", bm.Name)
				}
				for _, entry := range []int{-1, len(sys.disp)} {
					if err := sys.InspectRegion(entry, nil); !errors.Is(err, ErrNoCode) {
						t.Fatalf("%s: InspectRegion(%d) = %v, want ErrNoCode", bm.Name, entry, err)
					}
				}
				if err := tel.Events.Flush(); err != nil {
					t.Fatal(err)
				}
				if events != eventsBefore {
					t.Fatalf("%s: InspectRegion emitted %d events", bm.Name, events-eventsBefore)
				}
				if err := tel.Metrics.WriteJSON(&metricsAfter); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(metricsBefore.Bytes(), metricsAfter.Bytes()) {
					t.Fatalf("%s: InspectRegion changed the metrics", bm.Name)
				}
			}
		})
	}
}
