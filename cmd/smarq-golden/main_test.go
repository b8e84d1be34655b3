package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func parse(t *testing.T, s string) interface{} {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCompareIdentical(t *testing.T) {
	doc := `{"a": 1.5, "b": ["x", true, null], "c": {"d": 2}}`
	if diffs := compare("$", parse(t, doc), parse(t, doc)); len(diffs) != 0 {
		t.Errorf("identical documents differ: %v", diffs)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	golden := parse(t, `{"speedup": 1.362000000, "zero": 0}`)
	// 1 part in 1.4e9 and 1e-13 from zero: inside rtol and atol.
	within := parse(t, `{"speedup": 1.362000001, "zero": 1e-13}`)
	if diffs := compare("$", golden, within); len(diffs) != 0 {
		t.Errorf("within-tolerance numbers differ: %v", diffs)
	}
	// 1 part in 1.4e8 and 1e-11 from zero: outside both.
	outside := parse(t, `{"speedup": 1.36200001, "zero": 1e-11}`)
	if diffs := compare("$", golden, outside); len(diffs) != 2 {
		t.Errorf("out-of-tolerance numbers: got diffs %v, want 2", diffs)
	}
}

func TestCompareStructure(t *testing.T) {
	cases := []struct {
		name, golden, got string
		wantDiffs         int
	}{
		{"missing field", `{"a": 1, "b": 2}`, `{"a": 1}`, 1},
		{"extra field", `{"a": 1}`, `{"a": 1, "b": 2}`, 1},
		{"type change", `{"a": 1}`, `{"a": "1"}`, 1},
		{"array length", `[1, 2, 3]`, `[1, 2]`, 1},
		{"array element", `[1, 2, 3]`, `[1, 9, 3]`, 1},
		{"string change", `{"a": "x"}`, `{"a": "y"}`, 1},
		{"nested", `{"a": {"b": [1]}}`, `{"a": {"b": [2]}}`, 1},
		{"multiple", `{"a": 1, "b": 2}`, `{"a": 9, "b": 8}`, 2},
	}
	for _, tc := range cases {
		diffs := compare("$", parse(t, tc.golden), parse(t, tc.got))
		if len(diffs) != tc.wantDiffs {
			t.Errorf("%s: got %d diffs %v, want %d", tc.name, len(diffs), diffs, tc.wantDiffs)
		}
	}
}

func TestCompareBigIntsExact(t *testing.T) {
	// Cycle counts are int64s that can exceed float64 precision; equal
	// strings must pass regardless.
	doc := `{"cycles": 9223372036854775807}`
	if diffs := compare("$", parse(t, doc), parse(t, doc)); len(diffs) != 0 {
		t.Errorf("identical big ints differ: %v", diffs)
	}
}

func TestCloseEnough(t *testing.T) {
	if !closeEnough(0, 0, 0, 0) {
		t.Error("0 != 0")
	}
	if !closeEnough(100, 100.00000001, 1e-9, 0) {
		t.Error("relative tolerance not applied")
	}
	if closeEnough(100, 101, 1e-9, 0) {
		t.Error("1% error accepted at rtol 1e-9")
	}
	if !closeEnough(0, 1e-13, 0, 1e-12) {
		t.Error("absolute tolerance not applied")
	}
}
