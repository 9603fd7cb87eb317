package planner

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// searchOutcomes runs a full search and returns its result plus every
// outcome in its memo, rendered and sorted. Memo keys embed state
// fingerprints, which differ between runs (deployed configs carry a
// process-wide version counter), so the outcomes are compared as a set.
func searchOutcomes(t *testing.T, name string, seed int64) (*Result, []string) {
	t.Helper()
	snap, p, err := ScenarioSetup(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Bare waves and MinNextHop overrides widen the explored transients:
	// deferred protection is where black holes and alerts show up.
	p.SearchBare = true
	p.MinNextHops = []int{50}
	p.Workers = 2
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunJournaled(s, JournalFunc(func(int, []byte) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]string, 0, len(s.memo))
	for _, me := range s.memo {
		outs = append(outs, fmt.Sprintf("%+v", me.out))
	}
	sort.Strings(outs)
	return res, outs
}

// resampleAlways runs fn with every probe propagating on every sample.
func resampleAlways(t *testing.T, fn func()) {
	t.Helper()
	forceResample = true
	defer func() { forceResample = false }()
	fn()
}

// TestProbeSkipDifferential: a probe re-propagates the workload only
// after a FIB write, best-path change or session event. Forcing it to
// propagate on every sample must not change a single measured outcome,
// over every expansion a search of each registry scenario evaluates.
func TestProbeSkipDifferential(t *testing.T) {
	shares := make(map[string]bool)
	alerted := 0
	for _, name := range ScenarioNames() {
		skipRes, skipOuts := searchOutcomes(t, name, 7)
		var fullRes *Result
		var fullOuts []string
		resampleAlways(t, func() { fullRes, fullOuts = searchOutcomes(t, name, 7) })

		if !slices.Equal(skipOuts, fullOuts) {
			t.Fatalf("%s: measured outcomes diverge:\n skip: %v\n full: %v", name, skipOuts, fullOuts)
		}
		for _, o := range skipOuts {
			shares[o[strings.Index(o, "PeakShare:"):strings.Index(o, " ConvergeNs:")]] = true
			if !strings.Contains(o, "Alerts:0 ") {
				alerted++
			}
		}
		if skipRes.Winner.String() != fullRes.Winner.String() || skipRes.Score != fullRes.Score ||
			skipRes.BaselineScore != fullRes.BaselineScore || skipRes.Stats != fullRes.Stats {
			t.Fatalf("%s: result diverges:\n skip: %s %s %+v\n full: %s %s %+v", name,
				skipRes.Winner, skipRes.Score, skipRes.Stats, fullRes.Winner, fullRes.Score, fullRes.Stats)
		}
	}
	// Vacuousness guard: the outcomes compared must differ in funneling
	// and include detector alerts, or the comparison proves little. (No
	// registry scenario black-holes under the planner; the guard's
	// differential covers black-hole windows.)
	if len(shares) < 3 || alerted == 0 {
		t.Fatalf("differential saw %d distinct peak shares and %d alerting outcomes", len(shares), alerted)
	}
}

// TestPlannerSearchAllocBound pins the cost of per-fork measurement: the
// BenchmarkPlanner search allocated about 164 MB when every fork's probe
// built a telemetry collector with a 4096-event ring per device.
func TestPlannerSearchAllocBound(t *testing.T) {
	enc, p := benchSetup(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := newSearchFromState(enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunJournaled(s, JournalFunc(func(int, []byte) error { return nil })); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 24 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= limit {
		t.Fatalf("one BenchmarkPlanner search allocated %.1f MB, want < %d MB", float64(alloc)/(1<<20), limit>>20)
	}
}
