package main

// The fleet phase: cold convergence of one ConvergenceScales point at
// engine width 1 and width nproc, each pair followed by drains and
// undrains of the next FSW/SSW/FADU/FAUU devices on the converged
// width-1 fabric.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"net/netip"
	"sort"
	"time"

	"centralium/internal/experiments"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/topo"
)

// drainLayers are the layers whose devices the phase drains.
var drainLayers = []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFADU, topo.LayerFAUU}

type fleetPhase struct {
	scale experiments.ConvergenceScale
	// first is the width-1 network of the first seed, built in set-up.
	first              *fabric.Network
	pairs, reconverges int
	// order is every FSW/SSW/FADU/FAUU with the layers interleaved;
	// cursor is the next device to drain.
	order  []topo.DeviceID
	cursor int
}

func scaleNamed(name string) experiments.ConvergenceScale {
	for _, sc := range experiments.ConvergenceScales() {
		if sc.Name == name {
			return sc
		}
	}
	panic("perfbench: unknown convergence scale " + name)
}

// newFleetNet builds the scale's fabric and originates the backbone
// default route at every EB plus the rack prefixes, as
// experiments.RunConvergence does; Converge is left to the caller.
func newFleetNet(sc experiments.ConvergenceScale, seed int64, workers int) *fabric.Network {
	tp := topo.BuildFabric(sc.Params)
	n := fabric.New(tp, fabric.Options{Seed: seed, Workers: workers})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		if sc.RackRSWsPerPod > 0 && rsw.Index >= sc.RackRSWsPerPod {
			continue
		}
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", rsw.Pod, rsw.Index%256))
		n.OriginateAt(rsw.ID, p, nil, 0)
	}
	return n
}

// setup builds the first pair's width-1 fabric.
func (f *fleetPhase) setup(cfg config) {
	f.first = newFleetNet(f.scale, derive(cfg.seed, "fleet", 0), 1)
}

// drainSegment is how many devices one step drains and undrains.
const drainSegment = 16

// step runs one unit of the phase: one cold converge pair, then a
// drain segment on the pair's width-1 fabric.
func (f *fleetPhase) step(cfg config, rep *report, tr *tracer) {
	seed := derive(cfg.seed, "fleet", f.pairs)
	traced := tr.sampled(f.pairs)
	n1 := f.first
	f.first = nil
	if n1 == nil {
		n1 = newFleetNet(f.scale, seed, 1)
	}
	ev1, d1 := f.converge(n1, traced, "fabric.converge_w1")
	rep.op(nil)
	rep.sample("converge", d1, traced != nil)
	n2 := newFleetNet(f.scale, seed, cfg.nproc)
	ev2, d2 := f.converge(n2, traced, "fabric.converge_wn")
	if rep.op(sameConvergence(seed, cfg.nproc, ev1, ev2, n1.Now(), n2.Now())) {
		rep.sample("converge_par", d2, traced != nil)
	}
	rep.sample("fabric.events", float64(ev1), false)
	if ev2 > 0 {
		rep.sample("fabric.batched_share", float64(n2.EventsBatched())/float64(n2.EventsProcessed()), false)
	}
	f.pairs++
	f.drainSegment(n1, rep, tr)
}

// done reports that the phase has its minimum samples.
func (f *fleetPhase) done() bool { return f.pairs >= minPairs }

// sameConvergence is the width check: a converge is byte-identical at
// any engine width, so events and virtual time must match width 1.
func sameConvergence(seed int64, width int, ev1, evN, now1, nowN int64) error {
	if ev1 <= 0 {
		return fmt.Errorf("fleet seed %d: converge processed no events", seed)
	}
	if ev1 != evN || now1 != nowN {
		return fmt.Errorf("fleet seed %d: width 1 gave %d events @%dns, width %d gave %d events @%dns",
			seed, ev1, now1, width, evN, nowN)
	}
	return nil
}

func (f *fleetPhase) converge(n *fabric.Network, tr *tracer, name string) (int64, float64) {
	sp := tr.request(name)
	t0 := time.Now()
	ev := n.Converge()
	d := time.Since(t0).Seconds()
	sp.end()
	return ev, d
}

// drainSegment drains and undrains the next drainSegment devices of
// the interleaved order, so every FSW/SSW/FADU/FAUU is drained in turn
// across the run's fabrics and every segment has the same layer mix.
// Each undrain must return the fleet's FIBs to their state before the
// segment, and every reconverge must do work.
func (f *fleetPhase) drainSegment(n *fabric.Network, rep *report, tr *tracer) {
	if f.order == nil {
		f.order = drainOrder(n.Topo)
	}
	want := fibDigest(n)
	before := n.IncrementalStats()
	var events int64
	for k := 0; k < drainSegment; k++ {
		dev := f.order[f.cursor%len(f.order)]
		f.cursor++
		for _, drained := range []bool{true, false} {
			f.reconverges++
			traced := tr.sampled(f.reconverges)
			sp := traced.request("fabric.reconverge")
			t0 := time.Now()
			n.SetDrained(dev, drained)
			ev := n.Converge()
			d := time.Since(t0).Seconds() * 1e3
			sp.end()
			events += ev
			var err error
			switch {
			case ev == 0:
				err = fmt.Errorf("drain %s=%v: reconverge processed no events", dev, drained)
			case !drained && fibDigest(n) != want:
				err = fmt.Errorf("undrain %s: fleet FIBs differ from the pre-drain state", dev)
			}
			if rep.op(err) {
				rep.sample("reconverge", d, traced != nil)
				rep.sample("fabric.reconverge_events", float64(ev), false)
			}
		}
	}
	after := n.IncrementalStats()
	if events > 0 {
		rep.sample("bgp.adv_memo_per_event", float64(after.AdvertiseMemoHits-before.AdvertiseMemoHits)/float64(events), false)
		rep.sample("bgp.fib_memo_per_event", float64(after.FIBMemoHits-before.FIBMemoHits)/float64(events), false)
		rep.sample("bgp.skipped_recomputes", float64(after.SkippedRecomputes-before.SkippedRecomputes), false)
	}
}

// drainOrder lists every device of the drain layers, each layer spread
// evenly over the list (device i of a layer of m sits at (i+0.5)/m).
func drainOrder(t *topo.Topology) []topo.DeviceID {
	type slot struct {
		id    topo.DeviceID
		pos   float64
		layer int
	}
	var slots []slot
	for li, layer := range drainLayers {
		devs := t.ByLayer(layer)
		for i, d := range devs {
			slots = append(slots, slot{d.ID, (float64(i) + 0.5) / float64(len(devs)), li})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].pos != slots[j].pos {
			return slots[i].pos < slots[j].pos
		}
		return slots[i].layer < slots[j].layer
	})
	out := make([]topo.DeviceID, len(slots))
	for i, s := range slots {
		out[i] = s.id
	}
	return out
}

// fibDigest hashes every device's FIB entries in device order.
func fibDigest(n *fabric.Network) string {
	h := sha256.New()
	for _, d := range n.Topo.Devices() {
		writeFIB(h, n, d.ID)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeFIB(h hash.Hash, n *fabric.Network, id topo.DeviceID) {
	fmt.Fprintf(h, "%s\n", id)
	for _, e := range n.Speaker(id).FIB().Snapshot() {
		fmt.Fprintf(h, "%s", e.Prefix)
		for _, hop := range e.Hops {
			fmt.Fprintf(h, " %v", hop)
		}
		h.Write([]byte{'\n'})
	}
}
