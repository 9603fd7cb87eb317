package main

import (
	"testing"

	"centralium/internal/qualify"
)

// TestSuiteVerdicts pins the verdict of every suite at the default seed:
// the bottom-up rollout and the decommission protection pass, the
// top-down Figure 10 hazard fails.
func TestSuiteVerdicts(t *testing.T) {
	want := map[string]bool{
		"equalization":         true,
		"equalization-topdown": false,
		"protection":           true,
	}
	available := suites(42)
	if len(available) != len(want) {
		t.Fatalf("have %d suites, want %d", len(available), len(want))
	}
	for name, pass := range want {
		mk, ok := available[name]
		if !ok {
			t.Fatalf("suite %q missing", name)
		}
		rep, err := qualify.Run(mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Passed != pass {
			t.Errorf("%s: passed=%v, want %v\n%s", name, rep.Passed, pass, rep)
		}
	}
}
