package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"centralium/internal/guard"
	"centralium/internal/server"
)

// toyConfig is a run whose budget is spent before it starts, so every
// phase runs only its minimum samples.
func toyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	for _, w := range workloads {
		if w.name == workload {
			return config{workload: w, seed: 1, budget: time.Nanosecond, trace: trace, nproc: 2, work: t.TempDir()}
		}
	}
	t.Fatalf("no workload %q", workload)
	return config{}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestWorkloadsAtToySize(t *testing.T) {
	endToEnd, _ := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, _, err := runWorkload(toyConfig(t, w.name, false), os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
			}
			for _, name := range endToEnd {
				m, ok := rep.endToEnd[name]
				if !ok || !(m.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want > 0", name, m, ok)
				}
			}
			if len(rep.endToEnd) != len(endToEnd) {
				t.Errorf("run reports %d end-to-end metrics, BENCHMARK.json declares %d", len(rep.endToEnd), len(endToEnd))
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	cfg := toyConfig(t, "whatif-serve", true)
	rep, tr, err := runWorkload(cfg, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("failed %d: %v", rep.failed, rep.failures)
	}
	for _, name := range perLayer {
		if _, ok := rep.layer[name]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", name)
		}
	}
	if len(rep.layer) != len(perLayer) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json declares %d", len(rep.layer), len(perLayer))
	}
	if !strings.HasPrefix(rep.overheadLine(), "tracing overhead: whatif") {
		t.Errorf("overhead line %q", rep.overheadLine())
	}
	path := cfg.work + "/spans.json"
	if err := tr.write(path, map[string]any{"seed": cfg.seed}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Rollup []rollupRow
		Spans  []span
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, r := range out.Rollup {
		layers[r.Layer] = true
		if r.SelfMs > r.TotalMs+1e-9 || r.SelfMs < 0 {
			t.Errorf("span %s: self %.3f ms outside [0, total %.3f ms]", r.Name, r.SelfMs, r.TotalMs)
		}
	}
	for _, l := range []string{"fabric", "fib", "snapshot", "qualify", "server", "planner", "guard", "telemetry", "store"} {
		if !layers[l] {
			t.Errorf("no spans for layer %s", l)
		}
	}
}

// A corrupted reference must surface as failed operations, never as a
// timed pass.
func TestCorruptReferenceCountsAsFailure(t *testing.T) {
	cfg := toyConfig(t, "whatif-serve", false)
	w := &whatifPhase{}
	if err := w.prepare(cfg); err != nil {
		t.Fatal(err)
	}
	for i := range w.warm {
		w.warm[i].want = flipFingerprint(t, w.warm[i].want)
	}
	for i := range w.fresh {
		w.fresh[i].want = flipFingerprint(t, w.fresh[i].want)
	}
	if err := w.setup(cfg); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rep := newReport(&bytes.Buffer{})
	w.step(cfg, rep, nil)
	if rep.attempted == 0 || rep.failed != rep.attempted {
		t.Fatalf("attempted %d, failed %d: every verdict should mismatch", rep.attempted, rep.failed)
	}
	if n := len(rep.series("whatif")); n != 0 {
		t.Fatalf("%d mismatched requests were timed", n)
	}
}

func flipFingerprint(t *testing.T, verdict []byte) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(verdict, &v); err != nil {
		t.Fatal(err)
	}
	fp := []byte(v["Fingerprint"].(string))
	fp[0] ^= 1
	return bytes.Replace(verdict, []byte(v["Fingerprint"].(string)), fp, 1)
}

func TestOutputChecksRejectWrongAnswers(t *testing.T) {
	if sameConvergence(1, 2, 100, 100, 5, 5) != nil {
		t.Error("identical converges rejected")
	}
	if sameConvergence(1, 2, 100, 101, 5, 5) == nil || sameConvergence(1, 2, 100, 100, 5, 6) == nil {
		t.Error("width mismatch accepted")
	}
	if sameConvergence(1, 2, 0, 0, 0, 0) == nil {
		t.Error("empty converge accepted")
	}
	ref := &campaignRef{winner: "a > b"}
	if checkPlan(ref, &server.PlanResponse{Done: true, Winner: "a > b"}) != nil {
		t.Error("matching plan rejected")
	}
	if checkPlan(ref, &server.PlanResponse{Done: true, Winner: "b > a"}) == nil || checkPlan(ref, &server.PlanResponse{Winner: "a > b"}) == nil {
		t.Error("wrong or unfinished plan accepted")
	}
	x := execRef{state: guard.StateCompleted, finalFP: "abc"}
	if checkExecute(x, &server.ExecuteResponse{State: "completed", FinalFingerprint: "abc"}) != nil {
		t.Error("matching execute rejected")
	}
	if checkExecute(x, &server.ExecuteResponse{State: "completed", FinalFingerprint: "abd"}) == nil {
		t.Error("flipped final fingerprint accepted")
	}
	if checkChurn(&server.ExecuteResponse{State: "aborted", Rollbacks: 2}) != nil {
		t.Error("aborted churn execute rejected")
	}
	if checkChurn(&server.ExecuteResponse{State: "completed"}) == nil || checkChurn(&server.ExecuteResponse{State: "aborted"}) == nil {
		t.Error("churn execute without abort and rollback accepted")
	}
}

func TestRollupSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "a.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b.child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b.child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c.late", Start: 90, End: 120},
	}}
	got := map[string]rollupRow{}
	for _, r := range tr.rollup() {
		got[r.Name] = r
	}
	// Children cover [10,60] and [90,100] of the root: 60 of 100 ns.
	if self := got["a.root"].SelfMs * 1e6; self < 39.99 || self > 40.01 {
		t.Errorf("root self time %.2f ns, want 40", self)
	}
	if c := got["b.child"]; c.Count != 2 || c.SelfMs*1e6 < 59.99 {
		t.Errorf("child row %+v", c)
	}
}
