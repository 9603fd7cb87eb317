package guard

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
)

// waveMetrics replays a campaign's waves outside the supervisor and
// returns every attempt's raw WaveMetrics: attempt 0 (the planned shape,
// instrumented) and attempt 1 (the first degraded retry, after backoff)
// of each wave, with the campaign advancing on attempt 0's fork whether
// or not it stayed inside the envelope.
func waveMetrics(t *testing.T, base *snapshot.Snapshot, c Campaign) []WaveMetrics {
	t.Helper()
	r, err := newRun(base, c)
	if err != nil {
		t.Fatal(err)
	}
	var out []WaveMetrics
	lastGood := base
	for w, step := range r.waves {
		var next *fabric.Network
		for attempt := 0; attempt < 2; attempt++ {
			work, err := r.restore(lastGood)
			if err != nil {
				t.Fatal(err)
			}
			if attempt > 0 {
				work.RunFor(r.c.Retry.backoff(attempt))
			}
			if r.c.Instrument != nil {
				r.c.Instrument(work, w, attempt)
			}
			m, err := executeWave(context.Background(), work, r.c, degradedShape(step, attempt, r.c.Retry))
			if err != nil {
				t.Fatalf("wave %d attempt %d: %v", w, attempt, err)
			}
			out = append(out, m)
			if attempt == 0 {
				next = work
			}
		}
		next.Converge()
		if lastGood, err = snapshot.Capture(next); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// guardOutcome is everything a guarded run reports: the decision log
// (which prints each attempt's metrics), the terminal state and
// fingerprint, and the incident report of an abort.
func guardOutcome(t *testing.T, base *snapshot.Snapshot, c Campaign) string {
	t.Helper()
	res, err := Run(context.Background(), base, c)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Snapshot.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var report []byte
	if res.Report != nil {
		report = EncodeIncidentReport(res.Report)
	}
	return res.Log + string(res.State) + fp + string(report)
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
// propagate on every sample must leave every wave's metrics — and every
// guarded run's decisions — unchanged, under the chaos-guard fault plans
// (session resets, device restarts) and on each registry scenario.
func TestProbeSkipDifferential(t *testing.T) {
	type arm struct {
		name     string
		scenario string
		seed     int64
		plan     func(t *testing.T, seed int64, base *snapshot.Snapshot) func(n *fabric.Network, wave, attempt int)
	}
	var arms []arm
	for seed := int64(1); seed <= 5; seed++ {
		arms = append(arms,
			arm{"chaos", "fig10", seed, chaosPlanArm},
			arm{"storm", "fig10", seed, stormArm})
	}
	for _, name := range planner.ScenarioNames() {
		arms = append(arms, arm{"clean", name, 7, nil})
	}
	var blackholed, downs, alerted int
	for _, a := range arms {
		base, p, err := planner.ScenarioSetup(a.scenario, a.seed)
		if err != nil {
			t.Fatal(err)
		}
		c := FromParams(p)
		c.Name = "differential"
		if a.plan != nil {
			c.Instrument = a.plan(t, a.seed, base)
		}
		skipM, skipRun := waveMetrics(t, base, c), guardOutcome(t, base, c)
		var fullM []WaveMetrics
		var fullRun string
		resampleAlways(t, func() { fullM, fullRun = waveMetrics(t, base, c), guardOutcome(t, base, c) })

		if !reflect.DeepEqual(skipM, fullM) {
			t.Fatalf("%s %s seed %d: wave metrics diverge:\n skip: %+v\n full: %+v", a.name, a.scenario, a.seed, skipM, fullM)
		}
		if skipRun != fullRun {
			t.Fatalf("%s %s seed %d: guarded run diverges:\n--- skip ---\n%s\n--- full ---\n%s", a.name, a.scenario, a.seed, skipRun, fullRun)
		}
		for _, m := range skipM {
			if m.BlackholeNs > 0 {
				blackholed++
			}
			if m.SessionDowns > 0 {
				downs++
			}
			if m.Alerts > 0 {
				alerted++
			}
		}
	}
	// Vacuousness guard: the compared metrics must include black-hole
	// windows, session loss and detector alerts.
	if blackholed == 0 || downs == 0 || alerted == 0 {
		t.Fatalf("differential saw %d black-holing, %d session-down and %d alerting attempts; want all > 0",
			blackholed, downs, alerted)
	}
}

// TestGuardedCampaignAllocBound pins the cost of per-wave measurement:
// one clean fig10 guarded campaign allocated about 19 MB when each
// attempt's probe built a telemetry collector with a 4096-event ring
// per device.
func TestGuardedCampaignAllocBound(t *testing.T) {
	base, p, err := planner.ScenarioSetup("fig10", 42)
	if err != nil {
		t.Fatal(err)
	}
	c := FromParams(p)
	c.Name = "alloc"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), base, c)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCompleted {
		t.Fatalf("campaign ended %s", res.State)
	}
	const limit = 4 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= limit {
		t.Fatalf("one guarded fig10 campaign allocated %.1f MB, want < %d MB", float64(alloc)/(1<<20), limit>>20)
	}
}
