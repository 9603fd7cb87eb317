package fabric

import (
	"sync"
	"sync/atomic"

	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

// This file is the batch-parallel execution path of the engine (see
// DESIGN.md, "Batch-parallel engine"). The contract is strict: a parallel
// run must be byte-identical to a sequential run of the same seed — same
// event schedule, same telemetry stream, same FIB contents, same canonical
// logs. The mechanism:
//
//   - The engine collects a window of consecutive delivery events whose
//     timestamps span less than the lookahead (BaseLatency, the minimum
//     message delay). No event inside the window can schedule another event
//     inside it, and no control event (session churn, device power, chaos
//     fault firing) separates them, so their only ordering constraint is
//     per-device: two UPDATEs to the same speaker must apply in (time, seq)
//     order, while UPDATEs to different speakers commute.
//   - Phase 1 (parallel): deliveries are partitioned by target device and
//     fanned across workers. Each worker drives its speakers in event
//     order, handing back each event's outbox and buffered tap events.
//     Speakers are single-threaded state machines; device partitioning is
//     what makes driving them from workers safe.
//   - Phase 2 (merge, sequential): events are replayed in global (time,
//     seq) order — tap emission, jitter draws, chaos perturber calls, FIFO
//     bookkeeping, and scheduling of the resulting deliveries — so every
//     externally visible side effect happens in exactly the sequential
//     order, including RNG consumption.

// nodeTap is the per-node telemetry shim. Sequentially it forwards to the
// fleet tap; while a parallel worker owns the node it buffers, and the
// merge phase emits the buffer in event order.
type nodeTap struct {
	net       *Network
	buffering bool
	buf       []telemetry.Event
}

// Emit implements telemetry.Tap.
func (t *nodeTap) Emit(ev telemetry.Event) {
	if t.buffering {
		t.buf = append(t.buf, ev)
		return
	}
	t.net.tap.Emit(ev)
}

// take returns and clears the buffered events.
func (t *nodeTap) take() []telemetry.Event {
	out := t.buf
	t.buf = nil
	return out
}

// execBatch runs one causally independent window of delivery events:
// parallel per-device handling, then a sequential merge in (time, seq)
// order. Called by the engine with len(batch) > 1.
func (n *Network) execBatch(batch []*event) {
	// Partition by target device, preserving per-device event order.
	groups := make(map[topo.DeviceID][]*event, len(batch))
	var order []topo.DeviceID
	for _, ev := range batch {
		key := ev.dlv.to
		if groups[key] == nil {
			order = append(order, key)
		}
		groups[key] = append(groups[key], ev)
	}

	if len(order) == 1 {
		// One device: no parallelism to extract; step sequentially.
		for _, ev := range batch {
			n.eng.now = ev.at
			n.deliver(&ev.dlv)
		}
		return
	}

	buffer := n.tap != nil
	if buffer {
		for _, key := range order {
			n.nodes[key].tap.buffering = true
		}
	}

	// Phase 1: fan per-device groups across workers. Work-stealing over the
	// group list; assignment order does not affect results because every
	// side effect is buffered per event and merged in phase 2.
	workers := n.eng.workers
	if workers > len(order) {
		workers = len(order)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(order)) {
					return
				}
				n.handleGroup(groups[order[i]])
			}
		}()
	}
	wg.Wait()

	// Phase 2: merge in global event order.
	for _, ev := range batch {
		n.eng.now = ev.at
		if len(ev.taps) > 0 {
			for _, te := range ev.taps {
				n.tap.Emit(te)
			}
			ev.taps = nil
		}
		if len(ev.out) > 0 {
			n.routeMsgs(ev.dlv.to, ev.out)
			ev.out = nil
		}
	}

	if buffer {
		for _, key := range order {
			n.nodes[key].tap.buffering = false
		}
	}
}

// handleGroup applies one device's deliveries in event order, capturing
// each event's side effects (outbox, tap emissions) for the merge phase.
// The pre-checks read session/device state that cannot change inside a
// delivery-only window, so evaluating them here matches sequential timing.
func (n *Network) handleGroup(evs []*event) {
	for _, ev := range evs {
		d := &ev.dlv
		node := n.nodes[d.to]
		if node == nil || !node.up {
			continue
		}
		if cur := n.sessions[d.sess]; cur == nil || !cur.up || cur.epoch != d.epoch {
			continue // session went down (or bounced) while in flight
		}
		node.vnow = ev.at
		node.Speaker.HandleUpdate(d.sess, d.u)
		ev.out = node.Speaker.TakeOutbox()
		ev.taps = node.tap.take()
	}
}
