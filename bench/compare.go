package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads the end-to-end bounds from BENCHMARK.json at path, or
// from ./BENCHMARK.json or ../BENCHMARK.json when path is empty.
func readBounds(path string) (map[string]bound, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, p := range paths {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading bounds: %w", err)
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing bounds: %w", err)
	}
	out := make(map[string]bound, len(spec.EndToEnd))
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one metric on one workload.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	ungated    = "ungated"
)

// relSpread is a metric's quartile spread as a share of its median.
func relSpread(m metric) float64 {
	if m.Q3 == m.Q1 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// verdict compares new against base for a metric that may worsen by the
// share b.Bound. A metric whose spread on either side is wider than the
// bound cannot be told apart from noise and is unresolved.
func verdict(base, cur metric, b bound) string {
	if base.Median == cur.Median {
		return unchanged
	}
	if relSpread(base) > b.Bound || relSpread(cur) > b.Bound {
		return unresolved
	}
	change := math.Inf(1)
	if base.Median != 0 {
		change = (cur.Median - base.Median) / math.Abs(base.Median)
	}
	if b.Better == "higher" {
		change = -change
	}
	switch {
	case change > b.Bound:
		return worse
	case change < -b.Bound:
		return better
	}
	return unchanged
}

// exact metrics are gated with bound 0, whatever BENCHMARK.json says:
// for one seed they repeat exactly. (BENCHMARK.json's sim_cpi bound covers
// the differences between seeds.)
var exact = map[string]bool{"sim_cpi": true, "error_rate": true}

// compareFiles prints one row per workload and end-to-end metric of two
// result files and fails when a metric got worse by more than its bound —
// unless the host fingerprints differ, in which case it only reports.
func compareFiles(basePath, newPath, boundsPath string, w io.Writer) error {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	gate := sameHost(base.Fingerprint, cur.Fingerprint)
	if !gate {
		fmt.Fprintf(w, "host fingerprints differ; reporting only, not gating:\n  base %+v\n  new  %+v\n", base.Fingerprint, cur.Fingerprint)
	}
	if base.Seed != cur.Seed {
		fmt.Fprintf(w, "note: seeds differ (base %d, new %d)\n", base.Seed, cur.Seed)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase [q1, q3]\tnew [q1, q3]\tchange\tbound\tverdict")
	worseCount := 0
	for _, wl := range workloadNames {
		bw, cw := base.Workloads[wl], cur.Workloads[wl]
		if bw == nil || cw == nil {
			continue
		}
		for _, name := range endToEndOrder {
			bm, ok1 := bw.EndToEnd[name]
			cm, ok2 := cw.EndToEnd[name]
			if !ok1 || !ok2 {
				continue
			}
			// The run times have no bound (README.md, "Measured spread"):
			// their rows are printed and gate nothing.
			v, boundText := ungated, "-"
			b, ok := bounds[name]
			if exact[name] {
				b, ok = bound{Name: name, Better: "lower"}, true
			}
			if ok {
				v, boundText = verdict(bm, cm, b), fmt.Sprint(b.Bound)
			}
			if v == worse {
				worseCount++
			}
			change := "n/a"
			if bm.Median != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(cm.Median-bm.Median)/math.Abs(bm.Median))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s\t%s\n",
				wl, name, bm.Median, bm.Q1, bm.Q3, cm.Median, cm.Q1, cm.Q3, change, boundText, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	switch {
	case worseCount == 0:
		return nil
	case gate:
		return fmt.Errorf("%d metric(s) worse than their bound", worseCount)
	}
	fmt.Fprintf(w, "%d metric(s) worse, not gated: the hosts differ\n", worseCount)
	return nil
}
