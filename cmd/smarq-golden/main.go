// Command smarq-golden compares a JSON document against a checked-in
// golden file for the CI golden gates (bench-smoke, trace-smoke and
// analyze-smoke). Numbers match within a fixed relative tolerance of 1e-9
// plus an absolute 1e-12 (the simulated statistics are deterministic, but
// float formatting may vary across platforms); strings, booleans and
// structure must match exactly.
//
// Usage:
//
//	smarq-golden -golden testdata/bench-smoke.golden.json -got out.json
//	smarq-bench -json ... | smarq-golden -golden golden.json -got -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	goldenPath := flag.String("golden", "", "path to the golden JSON file")
	gotPath := flag.String("got", "-", "path to the JSON to check ('-' = stdin)")
	flag.Parse()
	if *goldenPath == "" {
		fmt.Fprintln(os.Stderr, "smarq-golden: -golden is required")
		os.Exit(2)
	}

	golden, err := decode(*goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarq-golden:", err)
		os.Exit(2)
	}
	got, err := decode(*gotPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarq-golden:", err)
		os.Exit(2)
	}

	diffs := compare("$", golden, got)
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "smarq-golden: %d difference(s) against %s:\n", len(diffs), *goldenPath)
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, "  ", d)
		}
		os.Exit(1)
	}
	fmt.Printf("smarq-golden: %s matches golden (rtol=%g)\n", *gotPath, rtol)
}

func decode(path string) (interface{}, error) {
	var rd io.Reader
	if path == "-" {
		rd = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rd = f
	}
	dec := json.NewDecoder(rd)
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// Numeric tolerances: relative to the larger magnitude, plus an absolute
// floor for values at or near zero.
const (
	rtol = 1e-9
	atol = 1e-12
)

// compare walks both JSON trees and collects human-readable differences.
// Having a full diff (rather than failing fast) makes CI logs actionable.
func compare(path string, golden, got interface{}) []string {
	switch g := golden.(type) {
	case map[string]interface{}:
		o, ok := got.(map[string]interface{})
		if !ok {
			return []string{fmt.Sprintf("%s: golden is an object, got %s", path, typeName(got))}
		}
		var diffs []string
		for _, k := range sortedUnionKeys(g, o) {
			gv, inG := g[k]
			ov, inO := o[k]
			switch {
			case !inO:
				diffs = append(diffs, fmt.Sprintf("%s.%s: missing from output", path, k))
			case !inG:
				diffs = append(diffs, fmt.Sprintf("%s.%s: unexpected field (not in golden)", path, k))
			default:
				diffs = append(diffs, compare(path+"."+k, gv, ov)...)
			}
		}
		return diffs
	case []interface{}:
		o, ok := got.([]interface{})
		if !ok {
			return []string{fmt.Sprintf("%s: golden is an array, got %s", path, typeName(got))}
		}
		if len(g) != len(o) {
			return []string{fmt.Sprintf("%s: length %d, golden has %d", path, len(o), len(g))}
		}
		var diffs []string
		for i := range g {
			diffs = append(diffs, compare(fmt.Sprintf("%s[%d]", path, i), g[i], o[i])...)
		}
		return diffs
	case json.Number:
		o, ok := got.(json.Number)
		if !ok {
			return []string{fmt.Sprintf("%s: golden is a number, got %s", path, typeName(got))}
		}
		gf, err1 := g.Float64()
		of, err2 := o.Float64()
		if err1 != nil || err2 != nil {
			if g.String() != o.String() {
				return []string{fmt.Sprintf("%s: %s, golden %s", path, o, g)}
			}
			return nil
		}
		if !closeEnough(gf, of, rtol, atol) {
			return []string{fmt.Sprintf("%s: %v, golden %v (rtol=%g)", path, of, gf, rtol)}
		}
		return nil
	default:
		if golden != got {
			return []string{fmt.Sprintf("%s: %v, golden %v", path, got, golden)}
		}
		return nil
	}
}

func closeEnough(a, b, rtol, atol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= atol+rtol*math.Max(math.Abs(a), math.Abs(b))
}

func typeName(v interface{}) string {
	switch v.(type) {
	case map[string]interface{}:
		return "object"
	case []interface{}:
		return "array"
	case json.Number:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return fmt.Sprintf("%T", v)
}

func sortedUnionKeys(a, b map[string]interface{}) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for k := range a {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
