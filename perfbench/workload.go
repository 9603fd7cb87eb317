package main

import (
	"fmt"
	"io"
	"time"

	"centralium/internal/planner"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 7

// Time shares: the native phase weighs nativeShare; each other phase
// runs as a side probe with its sideShare weight (the fleet side probe
// at the small scale). The campaign side probe weighs most because its
// samples cost most: a plan takes ~0.2 s and needs a serial reference.
const (
	nativeShare    = 0.6
	sideFleetScale = "small"
	minPairs       = 2
	minRounds      = 1
)

var sideShare = map[string]float64{phaseFleet: 0.15, phaseWhatIf: 0.25, phaseCampaign: 0.3}

// runWorkload sets up every phase, runs the phases interleaved for the
// budget, and fills the report.
func runWorkload(cfg config, log io.Writer) (*report, *tracer, error) {
	rep := newReport(log)
	var tr *tracer
	var lp *layerProbe
	if cfg.trace {
		tr = newTracer()
		lp = &layerProbe{tr: tr, rep: rep, work: cfg.work}
	}
	gc0, cpu0 := cpuClock()
	native := cfg.workload.native

	fleetScale := sideFleetScale
	if native == phaseFleet {
		fleetScale = "medium"
	}
	fl := &fleetPhase{scale: scaleNamed(fleetScale)}
	wi := &whatifPhase{}
	ca := &campaignPhase{}
	defer wi.close()
	defer ca.close()
	if err := wi.prepare(cfg); err != nil {
		return nil, nil, fmt.Errorf("what-if reference: %w", err)
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		fl.setup(cfg)
		if err := wi.setup(cfg); err != nil {
			return nil, nil, err
		}
		if err := ca.setup(cfg); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.setE2E("setup_s", "s", median(setups), len(setups))

	// The phases run interleaved, one step at a time: the next step goes
	// to the phase furthest below its share of the time used so far. A
	// stall of the host then slows a minority of every metric's samples
	// instead of all samples of one metric. Past the budget, only phases
	// short of their minimum samples (or with a campaign round open) run.
	phases := []struct {
		name  string
		step  func() error
		done  func() bool
		share float64
		used  time.Duration
	}{
		{phaseFleet, func() error { fl.step(cfg, rep, tr); return nil }, fl.done, 0, 0},
		{phaseWhatIf, func() error { wi.step(cfg, rep, tr); return nil }, wi.done, 0, 0},
		{phaseCampaign, func() error { return ca.step(cfg, rep, tr, lp) }, ca.done, 0, 0},
	}
	for i := range phases {
		phases[i].share = sideShare[phases[i].name]
		if phases[i].name == native {
			phases[i].share = nativeShare
		}
	}
	start := time.Now()
	for {
		over := time.Since(start) >= cfg.budget
		next := -1
		for i, p := range phases {
			if over && p.done() {
				continue
			}
			if next < 0 || float64(p.used)/p.share < float64(phases[next].used)/phases[next].share {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t0 := time.Now()
		if err := phases[next].step(); err != nil {
			return nil, nil, fmt.Errorf("%s phase: %w", phases[next].name, err)
		}
		phases[next].used += time.Since(t0)
	}
	wi.finish(rep)
	if cfg.trace {
		if err := wi.serverMetrics(rep); err != nil {
			return nil, nil, err
		}
	}

	rep.setE2E("rss_peak_mb", "MB", peakRSSMB(), 1)
	rep.medianE2E("converge_s", "s", "converge")
	rep.medianE2E("converge_par_s", "s", "converge_par")
	rec := append(rep.series("reconverge"), rep.series("reconverge@traced")...)
	rep.setE2E("reconverge_p50_ms", "ms", quantile(rec, 0.5), len(rec))
	rep.setE2E("reconverge_p90_ms", "ms", quantile(rec, 0.9), len(rec))
	rep.setE2E("whatif_req_s", "req/s", mean(rep.series("whatif_req_s")), len(rep.series("whatif")))
	lat := append(rep.series("whatif"), rep.series("whatif@traced")...)
	rep.setE2E("whatif_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	rep.setE2E("whatif_p99_ms", "ms", median(rep.series("whatif_p99_chunk")), len(lat))
	rep.groupQuantileE2E("plan_ms", "plan", planner.ScenarioNames(), 0.5)
	rep.groupQuantileE2E("execute_ms", "execute", planner.ScenarioNames(), 0.5)
	rep.medianE2E("recover_ms", "ms", "recover")

	rep.headline = map[string]string{phaseFleet: "converge", phaseWhatIf: "whatif", phaseCampaign: "plan"}[cfg.workload.native]
	if lp != nil {
		if err := finishLayers(cfg, rep, lp, wi, gc0, cpu0); err != nil {
			return nil, nil, err
		}
	}
	return rep, tr, nil
}

// finishLayers runs the layer probes that need no workload state of
// their own and derives every per-layer metric.
func finishLayers(cfg config, rep *report, lp *layerProbe, wi *whatifPhase, gc0, cpu0 float64) error {
	gc1, cpu1 := cpuClock()
	rep.setLayer("runtime.gc_cpu_share", "ratio", (gc1-gc0)/(cpu1-cpu0))
	lp.fleet(derive(cfg.seed, "fleet", 0))
	if err := lp.snapshots(cfg.seed); err != nil {
		return err
	}
	if err := lp.whatif(wi.warm); err != nil {
		return err
	}
	lp.telemetry()

	rep.setLayer("fabric.events", "count", mean(rep.series("fabric.events")))
	rep.setLayer("fabric.batched_share", "ratio", mean(rep.series("fabric.batched_share")))
	rep.setLayer("fabric.reconverge_events", "count", mean(rep.series("fabric.reconverge_events")))
	rep.setLayer("bgp.adv_memo_per_event", "ratio", mean(rep.series("bgp.adv_memo_per_event")))
	rep.setLayer("bgp.fib_memo_per_event", "ratio", mean(rep.series("bgp.fib_memo_per_event")))
	rep.setLayer("bgp.skipped_recomputes", "count", mean(rep.series("bgp.skipped_recomputes")))
	rep.setLayer("planner.step_ms", "ms", median(rep.series("planner.step_ms")))
	rep.setLayer("planner.steps_evaluated", "count", mean(rep.series("planner.steps_evaluated")))
	rep.setLayer("planner.memo_hit_ratio", "ratio", mean(rep.series("planner.memo_hit_ratio")))
	rep.setLayer("planner.ms_per_eval", "ms", median(rep.series("planner.ms_per_eval")))
	rep.setLayer("guard.run_ms", "ms", median(rep.series("guard.run_ms")))
	rep.setLayer("guard.overhead_x", "x", median(rep.series("guard.overhead_x")))
	rep.setLayer("guard.retries", "count", mean(rep.series("guard.retries")))
	rep.setLayer("guard.rollbacks", "count", mean(rep.series("guard.rollbacks")))
	rep.setLayer("store.appends_per_campaign", "count", mean(rep.series("store.appends_per_campaign")))
	rep.setLayer("store.append_us", "us", median(rep.series("store.append_us")))
	rep.setLayer("store.replay_us_per_record", "us", mean(rep.series("store.replay_us_per_record")))

	un, trc := rep.family(rep.headline, false), rep.family(rep.headline, true)
	rep.setLayer("trace.overhead_pct", "%", 100*(median(trc)/median(un)-1))
	return nil
}
