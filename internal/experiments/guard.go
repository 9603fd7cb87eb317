package experiments

// The guarded-execution benchmark: what the internal/guard supervisor
// costs on a clean campaign versus pushing the identical waves through
// the bare controller (the probe, per-wave snapshot captures, and
// checkpoint encoding are the overhead), and how fast a faulted
// campaign rolls back to its last-good state as the campaign's wave
// granularity varies. The chaos-guard conformance suite pins the guarded
// results byte-identical across worker widths, so this table only
// measures wall-clock.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/topo"
)

func init() {
	register("guard", "guarded execution: supervisor overhead on a clean campaign, time-to-rollback vs campaign shape", func(seed int64) (string, error) {
		return GuardBench(seed), nil
	})
	registerRows("guard", func(seed int64) []Row {
		return GuardBenchRows(seed)
	})
}

// GuardStats is one seed's full measurement set.
type GuardStats struct {
	// Unguarded and Guarded time the same clean fig10 campaign through
	// the bare controller and through guard.Run.
	Unguarded time.Duration
	Guarded   time.Duration
	Waves     int
	Rollbacks []GuardRollbackStat
}

// GuardRollbackStat measures one faulted campaign shape: a session-down
// storm hits wave 0, and TimeToRollback is the wall-clock from the
// wave's first attempt starting to the guard landing back on last-good.
type GuardRollbackStat struct {
	Shape          string
	Waves          int
	Batch          int
	TimeToRollback time.Duration
	Total          time.Duration
}

// guardBenchCache measures each seed once for both renderers.
var guardBenchCache = map[int64]GuardStats{}

func cachedGuardBench(seed int64) GuardStats {
	if s, ok := guardBenchCache[seed]; ok {
		return s
	}
	s := RunGuardBench(seed)
	guardBenchCache[seed] = s
	return s
}

// guardShapes are the fig10 campaign shapes the rollback sweep drives:
// the six migrating devices regrouped into per-device, paired, and
// all-at-once waves.
func guardShapes(devs []topo.DeviceID) []planner.Schedule {
	shapes := []int{1, 2, len(devs)}
	out := make([]planner.Schedule, 0, len(shapes))
	for _, batch := range shapes {
		var s planner.Schedule
		for i := 0; i < len(devs); i += batch {
			j := i + batch
			if j > len(devs) {
				j = len(devs)
			}
			s.Steps = append(s.Steps, planner.Step{Devices: devs[i:j]})
		}
		out = append(out, s)
	}
	return out
}

// RunGuardBench measures supervisor overhead and time-to-rollback for
// one seed.
func RunGuardBench(seed int64) GuardStats {
	var st GuardStats
	snap, p, err := planner.ScenarioSetup("fig10", seed)
	if err != nil {
		panic(fmt.Sprintf("guard bench: scenario: %v", err))
	}

	// Unguarded baseline: the same §5.3.2 waves through the controller
	// with no probe, no captures, no checkpoints.
	n, err := snap.Restore()
	if err != nil {
		panic(fmt.Sprintf("guard bench: restore: %v", err))
	}
	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
		Settle: func() { n.Converge() },
	}
	waves := ctl.Waves(controller.Rollout{Intent: p.Intent, OriginAltitude: p.OriginAltitude})
	start := time.Now()
	for _, wave := range waves {
		err := ctl.ExecuteCtx(context.Background(), controller.OrchestratedChange{
			Name: "unguarded wave",
			Rollout: controller.Rollout{
				Intent:          p.Intent,
				OriginAltitude:  p.OriginAltitude,
				Schedule:        [][]topo.DeviceID{wave},
				SettlePerDevice: p.SettlePerDevice,
			},
		})
		if err != nil {
			panic(fmt.Sprintf("guard bench: unguarded wave: %v", err))
		}
	}
	st.Unguarded = time.Since(start)
	st.Waves = len(waves)

	// Guarded run of the same campaign.
	c := guard.FromParams(p)
	c.Name = "bench-clean"
	start = time.Now()
	res, err := guard.Run(context.Background(), snap, c)
	if err != nil {
		panic(fmt.Sprintf("guard bench: guarded run: %v", err))
	}
	st.Guarded = time.Since(start)
	if res.State != guard.StateCompleted {
		panic(fmt.Sprintf("guard bench: clean campaign ended %s:\n%s", res.State, res.Log))
	}

	// Faulted campaigns: a session-down storm on wave 0 violates the
	// default envelope; with retries disabled the guard rolls back once
	// and aborts, so Total is dominated by detect-and-restore.
	baseline := planner.FromWaves(waves)
	for _, sched := range guardShapes(baseline.Devices()) {
		fc := guard.FromParams(p)
		fc.Name = "bench-fault"
		fc.Schedule = sched
		fc.Retry.MaxRetries = -1
		fc.Instrument = func(n *fabric.Network, wave, attempt int) {
			if wave == 0 && attempt == 0 {
				n.After(time.Millisecond, func() {
					n.RestartDevice(topo.SSWID(0, 0), 2*time.Millisecond, false)
				})
			}
		}
		var started, rolledBack time.Time
		fc.OnTransition = func(tr guard.Transition) {
			switch tr.State {
			case guard.StateRunning:
				if started.IsZero() {
					started = time.Now()
				}
			case guard.StateRolledBack:
				if rolledBack.IsZero() {
					rolledBack = time.Now()
				}
			}
		}
		start = time.Now()
		res, err := guard.Run(context.Background(), snap, fc)
		if err != nil {
			panic(fmt.Sprintf("guard bench: faulted run: %v", err))
		}
		if res.State != guard.StateAborted || rolledBack.IsZero() {
			panic(fmt.Sprintf("guard bench: storm campaign ended %s with %d rollback(s)",
				res.State, res.Rollbacks))
		}
		st.Rollbacks = append(st.Rollbacks, GuardRollbackStat{
			Shape:          fmt.Sprintf("%dx%d", len(sched.Steps), len(sched.Steps[0].Devices)),
			Waves:          len(sched.Steps),
			Batch:          len(sched.Steps[0].Devices),
			TimeToRollback: rolledBack.Sub(started),
			Total:          time.Since(start),
		})
	}
	return st
}

// GuardBench renders the text table.
func GuardBench(seed int64) string {
	st := cachedGuardBench(seed)
	var b strings.Builder
	fmt.Fprintf(&b, "clean fig10 campaign (%d waves, cores=%d):\n", st.Waves, runtime.NumCPU())
	fmt.Fprintf(&b, "  %-12s %10.1f ms\n", "unguarded", ms(st.Unguarded))
	fmt.Fprintf(&b, "  %-12s %10.1f ms  (%.2fx)\n", "guarded", ms(st.Guarded),
		float64(st.Guarded)/float64(st.Unguarded))
	fmt.Fprintf(&b, "\ntime to rollback on a wave-0 session-down storm:\n")
	fmt.Fprintf(&b, "  %-8s %6s %6s %16s %12s\n", "shape", "waves", "batch", "to-rollback", "total")
	for _, r := range st.Rollbacks {
		fmt.Fprintf(&b, "  %-8s %6d %6d %13.1f ms %9.1f ms\n",
			r.Shape, r.Waves, r.Batch, ms(r.TimeToRollback), ms(r.Total))
	}
	return b.String()
}

// GuardBenchRows renders the machine-readable rows.
func GuardBenchRows(seed int64) []Row {
	st := cachedGuardBench(seed)
	rows := []Row{{
		Label: "overhead",
		Values: map[string]float64{
			"waves":        float64(st.Waves),
			"unguarded_ms": ms(st.Unguarded),
			"guarded_ms":   ms(st.Guarded),
			"overhead_x":   float64(st.Guarded) / float64(st.Unguarded),
			"cores":        float64(runtime.NumCPU()),
		},
	}}
	for _, r := range st.Rollbacks {
		rows = append(rows, Row{
			Label: "rollback-" + r.Shape,
			Values: map[string]float64{
				"waves":               float64(r.Waves),
				"batch":               float64(r.Batch),
				"time_to_rollback_ms": ms(r.TimeToRollback),
				"total_ms":            ms(r.Total),
			},
		})
	}
	return rows
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
