package main

// Per-layer probes of a traced run. Each one calls a layer's public
// functions on the workload's own inputs, with a span around every
// call, and turns the spans and the layer's counters into the per-layer
// metrics listed in BENCHMARK.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/fib"
	"centralium/internal/planner"
	"centralium/internal/qualify"
	"centralium/internal/server"
	"centralium/internal/snapshot"
	"centralium/internal/store"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

type layerProbe struct {
	tr   *tracer
	rep  *report
	work string
	// tapStream is a recorded telemetry tap stream of a bare rollout.
	tapStream []telemetry.Event
}

// span opens a root span; a nil probe (untraced run) records nothing.
func (lp *layerProbe) span(name string) *active {
	if lp == nil {
		return nil
	}
	return lp.tr.request(name)
}

// timed runs fn under a span and returns its duration in ms.
func timed(parent *active, name string, fn func()) float64 {
	sp := parent.child(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds() * 1e3
	sp.end()
	return d
}

// fleet converges the small and medium scales at width 1 under
// MemStats, then replays the medium fabric's FIBs into fresh tables.
func (lp *layerProbe) fleet(seed int64) {
	for _, name := range []string{"small", "medium"} {
		n := newFleetNet(scaleNamed(name), seed, 1)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		sp := lp.span("fabric.converge_probe_" + name)
		t0 := time.Now()
		ev := n.Converge()
		d := time.Since(t0)
		sp.end()
		runtime.ReadMemStats(&m1)
		lp.rep.setLayer("fabric.ns_per_event."+name, "ns", float64(d.Nanoseconds())/float64(ev))
		if name != "medium" {
			continue
		}
		lp.rep.setLayer("fabric.allocs_per_event", "count", float64(m1.Mallocs-m0.Mallocs)/float64(ev))
		lp.rep.setLayer("fabric.bytes_per_event", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ev))
		var writes, peak, installs int
		var entries [][]fib.Entry
		for _, dev := range n.Topo.Devices() {
			t := n.Speaker(dev.ID).FIB()
			st := t.Stats()
			writes += st.Writes
			peak += st.PeakGroups
			entries = append(entries, t.Snapshot())
		}
		lp.rep.setLayer("fib.writes_per_event", "count", float64(writes)/float64(ev))
		lp.rep.setLayer("fib.peak_groups", "count", float64(peak))
		sp = lp.span("fib.install_replay")
		t0 = time.Now()
		for _, es := range entries {
			t := fib.New(0)
			for _, e := range es {
				t.Install(e.Prefix, e.Hops)
				installs++
			}
		}
		d = time.Since(t0)
		sp.end()
		lp.rep.setLayer("fib.install_ns", "ns", float64(d.Nanoseconds())/float64(installs))
	}
}

// snapshots captures, fingerprints, restores and encodes every
// scenario base.
func (lp *layerProbe) snapshots(seed int64) error {
	var capMs, fpMs, resMs, kb []float64
	for _, sc := range planner.ScenarioNames() {
		snap, _, err := planner.ScenarioSetup(sc, derive(seed, "warm/"+sc, 0))
		if err != nil {
			return err
		}
		root := lp.span("snapshot.base")
		var n *fabric.Network
		resMs = append(resMs, timed(root, "snapshot.restore", func() { n, err = snap.Restore() }))
		if err != nil {
			return err
		}
		var again *snapshot.Snapshot
		capMs = append(capMs, timed(root, "snapshot.capture", func() { again, err = snapshot.Capture(n) }))
		if err != nil {
			return err
		}
		fpMs = append(fpMs, timed(root, "snapshot.fingerprint", func() { _, err = again.Fingerprint() }))
		if err != nil {
			return err
		}
		data, err := snap.Encode()
		if err != nil {
			return err
		}
		root.end()
		kb = append(kb, float64(len(data))/1024)
	}
	lp.rep.setLayer("snapshot.capture_ms", "ms", mean(capMs))
	lp.rep.setLayer("snapshot.fingerprint_ms", "ms", mean(fpMs))
	lp.rep.setLayer("snapshot.restore_ms", "ms", mean(resMs))
	lp.rep.setLayer("snapshot.encoded_kb", "KB", mean(kb))
	return nil
}

// whatif replays every warm what-if case through the layers one request
// crosses: decode+validate, fork restore, qualification, encode. The
// sum of those medians against the untraced client p50 is the server's
// own overhead (HTTP, admission, cache lookup, memo).
func (lp *layerProbe) whatif(cases []whatifCase) error {
	type base struct {
		snap *snapshot.Snapshot
		p    planner.Params
		fp   string
	}
	bases := map[string]base{}
	var dec, res, qual, enc, events []float64
	for _, c := range cases {
		key := fmt.Sprintf("%s/%d", c.req.Scenario, c.req.Seed)
		b, ok := bases[key]
		if !ok {
			snap, p, err := planner.ScenarioSetup(c.req.Scenario, c.req.Seed)
			if err != nil {
				return err
			}
			fp, err := snap.Fingerprint()
			if err != nil {
				return err
			}
			b = base{snap, p, fp}
			bases[key] = b
		}
		body, _ := json.Marshal(c.req)
		root := lp.span("server.whatif_replay")
		var req *server.WhatIfRequest
		var err error
		dec = append(dec, 1e3*timed(root, "server.decode", func() {
			if req, err = server.DecodeWhatIfRequest(body); err == nil {
				err = req.Validate()
			}
		}))
		if err != nil {
			return err
		}
		var fork *fabric.Network
		res = append(res, timed(root, "snapshot.restore", func() { fork, err = b.snap.Restore() }))
		if err != nil {
			return err
		}
		inv := []qualify.Invariant{qualify.NoBlackholes(), qualify.NoLoops()}
		if req.MaxFunnelShare > 0 {
			inv = append(inv, qualify.FunnelBound(b.p.Watch, req.MaxFunnelShare))
		}
		if req.MaxLinkUtilization > 0 {
			inv = append(inv, qualify.MaxLinkUtilization(req.MaxLinkUtilization))
		}
		var rpt *qualify.Report
		qual = append(qual, timed(root, "qualify.run", func() {
			rpt, err = qualify.Run(qualify.Spec{
				Name: key, Net: fork, Intent: b.p.Intent, OriginAltitude: b.p.OriginAltitude,
				Workload: b.p.Demands, Invariants: inv, Schedule: req.Waves(), SampleEvery: req.SampleEvery,
			})
		}))
		if err != nil {
			return err
		}
		events = append(events, float64(rpt.Events))
		resp := &server.WhatIfResponse{Fingerprint: b.fp, Scenario: req.Scenario, Seed: req.Seed,
			Schedule: req.Schedule, Passed: rpt.Passed, Events: rpt.Events}
		for _, v := range rpt.Violations {
			resp.Violations = append(resp.Violations, server.GateViolation{
				Invariant: v.Invariant, Transient: v.Transient, AtNs: int64(v.At), Detail: v.Detail})
		}
		enc = append(enc, 1e3*timed(root, "server.encode", func() { _, err = json.Marshal(resp) }))
		root.end()
		if err != nil {
			return err
		}
	}
	lp.rep.setLayer("server.decode_us", "us", median(dec))
	lp.rep.setLayer("server.encode_us", "us", median(enc))
	lp.rep.setLayer("qualify.run_ms", "ms", median(qual))
	lp.rep.setLayer("qualify.events", "count", mean(events))
	layers := median(dec)/1e3 + median(res) + median(qual) + median(enc)/1e3
	lp.rep.setLayer("server.overhead_ms", "ms", median(lp.rep.series("whatif"))-layers)
	return nil
}

// planner records one reference search's step timings and counters.
func (lp *layerProbe) planner(ref *campaignRef) {
	total := 0.0
	for _, ms := range ref.stepMs {
		total += ms
		lp.rep.sample("planner.step_ms", ms, false)
	}
	lp.rep.sample("planner.steps_evaluated", float64(ref.evals), false)
	if ref.evals > 0 {
		lp.rep.sample("planner.memo_hit_ratio", float64(ref.memoHits)/float64(ref.evals), false)
		lp.rep.sample("planner.ms_per_eval", total/float64(ref.evals), false)
	}
}

// guardVsBare times the bare controller pushing the same waves on a
// restore of the same base, recording its telemetry tap stream, and
// reports the guard's cost as a multiple of it.
func (lp *layerProbe) guardVsBare(sc string, snap *snapshot.Snapshot, p planner.Params, waves [][]topo.DeviceID, guardMs float64) error {
	n, err := snap.Restore()
	if err != nil {
		return err
	}
	var stream []telemetry.Event
	n.SetTap(telemetry.TapFunc(func(ev telemetry.Event) { stream = append(stream, ev) }))
	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
		Settle: func() { n.Converge() },
	}
	sp := lp.span("controller.bare_run")
	t0 := time.Now()
	for _, wave := range waves {
		err = ctl.ExecuteCtx(context.Background(), controller.OrchestratedChange{
			Name: "bare wave",
			Rollout: controller.Rollout{
				Intent: p.Intent, OriginAltitude: p.OriginAltitude,
				Schedule: [][]topo.DeviceID{wave}, SettlePerDevice: p.SettlePerDevice,
			},
		})
		if err != nil {
			return fmt.Errorf("bare %s wave: %w", sc, err)
		}
	}
	bare := time.Since(t0).Seconds() * 1e3
	sp.end()
	lp.rep.sample("guard.run_ms", guardMs, false)
	lp.rep.sample("guard.overhead_x", guardMs/bare, false)
	if len(stream) > len(lp.tapStream) {
		lp.tapStream = stream
	}
	return nil
}

// telemetry feeds the longest recorded tap stream to a fresh collector.
func (lp *layerProbe) telemetry() {
	if len(lp.tapStream) == 0 {
		return
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c := telemetry.NewCollector(telemetry.CollectorOptions{})
	sp := lp.span("telemetry.emit")
	t0 := time.Now()
	for _, ev := range lp.tapStream {
		c.Emit(ev)
	}
	d := time.Since(t0)
	sp.end()
	runtime.ReadMemStats(&m1)
	lp.rep.setLayer("telemetry.emit_ns_per_event", "ns", float64(d.Nanoseconds())/float64(len(lp.tapStream)))
	if devs := len(c.Devices()); devs > 0 {
		lp.rep.setLayer("telemetry.bytes_per_stream", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(devs))
	}
}

// storeReplay reopens a closed campaign WAL, replays it, and re-appends
// its records into a fresh fsync=always log.
func (lp *layerProbe) storeReplay(rep *report, walDir string) {
	sp := lp.span("store.replay")
	t0 := time.Now()
	log, err := store.OpenLog(walDir, store.Options{Sync: store.SyncNever})
	if err != nil {
		rep.op(fmt.Errorf("reopen WAL %s: %w", walDir, err))
		return
	}
	var recs []store.Record
	err = log.Replay(func(r store.Record) error {
		recs = append(recs, store.Record{Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	d := time.Since(t0)
	sp.end()
	log.Close()
	if err != nil || len(recs) == 0 {
		rep.op(fmt.Errorf("replay WAL %s: %d records, %v", walDir, len(recs), err))
		return
	}
	rep.sample("store.replay_us_per_record", float64(d.Microseconds())/float64(len(recs)), false)

	dir, err := os.MkdirTemp(lp.work, "append-")
	if err != nil {
		rep.op(err)
		return
	}
	defer os.RemoveAll(dir)
	fresh, err := store.OpenLog(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		rep.op(err)
		return
	}
	defer fresh.Close()
	for _, r := range recs {
		sp := lp.span("store.append")
		t0 := time.Now()
		_, err := fresh.Append(r.Type, r.Data)
		rep.sample("store.append_us", float64(time.Since(t0).Nanoseconds())/1e3, false)
		sp.end()
		if err != nil {
			rep.op(err)
			return
		}
	}
}

// cpuClock reads the runtime's cumulative GC and total CPU seconds.
func cpuClock() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
