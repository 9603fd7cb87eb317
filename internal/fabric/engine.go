// Package fabric emulates a data center fleet: every topology device gets a
// bgp.Speaker, every link a BGP session, and all interaction flows through a
// deterministic discrete-event engine. Per-session message latency includes
// seeded jitter — the asynchrony that produces the paper's Section 3
// transients (first/last-router funneling, WCMP next-hop-group explosion) —
// while keeping every run exactly reproducible.
//
// The engine has two execution modes that produce byte-identical results:
// sequential (one event at a time) and batch-parallel (events inside a
// conservative lookahead window are partitioned by target device and fanned
// across a worker pool, with all externally visible side effects merged in
// sorted event order). See DESIGN.md, "Batch-parallel engine".
//
// This package is the substitute for Meta's production fleet (see
// DESIGN.md, substitution table).
package fabric

import (
	"fmt"
	"math"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

// delivery is one in-flight UPDATE: the structured form of a message event.
// Carrying the target device (instead of an opaque closure) is what lets
// the parallel engine partition same-window events by device.
type delivery struct {
	sess bgp.SessionID
	to   topo.DeviceID
	u    bgp.Update
	// epoch is the session incarnation the message was sent under; if the
	// session bounced while the message was in flight it dies with its TCP
	// connection instead of being delivered into the new incarnation.
	epoch int
}

// event is one scheduled engine entry: a control callback (fn) or, when fn
// is nil, a message delivery (dlv, held inline so a message costs no
// allocation of its own). out/taps buffer a delivery's side effects during
// the parallel phase so the merge phase can replay them in event order.
type event struct {
	at  int64 // virtual nanoseconds
	seq int64 // tie-break for equal timestamps: FIFO
	fn  func()
	dlv delivery

	out  []bgp.OutMsg
	taps []telemetry.Event
}

// isDelivery reports whether the event is a message delivery.
func (ev *event) isDelivery() bool { return ev.fn == nil }

// eventHeap is a binary min-heap of events ordered by (at, seq). The order
// is total (seq is unique), so the pop sequence is independent of the heap
// layout.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *event {
	old := *h
	last := len(old) - 1
	old[0], old[last] = old[last], old[0]
	old[:last].down(0)
	ev := old[last]
	old[last] = nil
	*h = old[:last]
	return ev
}

// init establishes the heap order over arbitrary contents.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// engine is the virtual clock and event queue.
type engine struct {
	now   int64
	seq   int64
	queue eventHeap
	seed  int64
	rng   *seededRNG

	// free recycles executed events into new ones, and batch is the
	// parallel path's window buffer. Both hold only storage, never live
	// events, and both are released when the queue drains, so a converged
	// fabric retains no engine storage beyond its (empty) queue.
	free  []*event
	batch []*event

	processed int64
	// batched counts events that executed through the parallel batch path;
	// tests and benchmarks use it to confirm fan-out actually engaged.
	batched int64
	hooks   []func(now int64)

	// net executes deliveries (the engine owns ordering, the network owns
	// semantics).
	net *Network
	// workers is the parallel fan-out width; <=1 runs fully sequentially.
	workers int
	// lookahead is the minimum delay of any scheduled delivery (the
	// network's BaseLatency): events less than lookahead apart cannot be
	// causally related, which is what makes window-parallelism safe.
	lookahead int64
}

func newEngine(seed int64) *engine {
	return &engine{seed: seed, rng: newSeededRNG(seed, 0)}
}

// enqueue stamps an event from the free list (or a new one) with the
// given absolute virtual time (clamped to now) and the next sequence
// number, pushes it, and returns it for the caller to fill in.
func (e *engine) enqueue(at int64) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if k := len(e.free); k > 0 {
		ev = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq = at, e.seq
	e.queue.push(ev)
	return ev
}

// recycle returns an executed event to the free list, dropping every
// reference it holds.
func (e *engine) recycle(ev *event) {
	*ev = event{}
	e.free = append(e.free, ev)
}

// schedule enqueues fn at the given absolute virtual time (clamped to now).
func (e *engine) schedule(at int64, fn func()) {
	e.enqueue(at).fn = fn
}

// scheduleDelivery enqueues a message delivery at the given virtual time.
// The delivery is copied into the event, so d need not outlive the call.
func (e *engine) scheduleDelivery(at int64, d *delivery) {
	e.enqueue(at).dlv = *d
}

// after enqueues fn delay nanoseconds from now.
func (e *engine) after(delay int64, fn func()) { e.schedule(e.now+delay, fn) }

// DefaultMaxEvents bounds a single Run call; hitting it indicates a
// non-converging protocol bug rather than a big workload.
const DefaultMaxEvents = 5_000_000

// noDeadline disables the deadline check in runCore.
const noDeadline = math.MaxInt64

// run processes events until the queue is empty or maxEvents is hit; it
// returns the number processed and whether the queue drained.
func (e *engine) run(maxEvents int64) (int64, bool) {
	n := e.runCore(noDeadline, maxEvents)
	return n, len(e.queue) == 0
}

// runUntil processes events with timestamps <= deadline.
func (e *engine) runUntil(deadline int64, maxEvents int64) int64 {
	n := e.runCore(deadline, maxEvents)
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// runCore is the shared event loop. Sequential mode pops one event at a
// time. Parallel mode additionally batches runs of consecutive delivery
// events that fall inside one lookahead window and hands them to the
// network's batch executor, which preserves sequential semantics exactly.
//
// Per-event hooks (OnEvent) observe global fleet state between every two
// events, which is inherently serializing: while any hook is registered the
// loop steps sequentially regardless of the worker count, so hook-driven
// consumers (transient samplers, the chaos monitor) see exactly the
// sequential interleaving.
func (e *engine) runCore(deadline int64, maxEvents int64) int64 {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	var n int64
	for len(e.queue) > 0 && n < maxEvents && e.queue[0].at <= deadline {
		if e.workers > 1 && len(e.hooks) == 0 && e.queue[0].isDelivery() {
			batch := e.collectBatch(deadline, maxEvents-n)
			if len(batch) > 1 {
				e.net.execBatch(batch)
				e.batched += int64(len(batch))
			} else {
				// Window of one: run it serially (no fan-out overhead).
				e.now = batch[0].at
				e.net.deliver(&batch[0].dlv)
			}
			n += int64(len(batch))
			e.processed += int64(len(batch))
			for i, ev := range batch {
				e.recycle(ev)
				batch[i] = nil
			}
			continue
		}
		ev := e.queue.pop()
		e.now = ev.at
		if ev.isDelivery() {
			e.net.deliver(&ev.dlv)
		} else {
			ev.fn()
		}
		e.recycle(ev)
		n++
		e.processed++
		for _, h := range e.hooks {
			h(e.now)
		}
	}
	if len(e.queue) == 0 {
		e.free, e.batch = nil, nil
	}
	return n
}

// collectBatch pops the maximal run of consecutive delivery events whose
// timestamps fall within one lookahead window of the head (and within the
// deadline and event budget). Any event processed in the window schedules
// new events no earlier than head.at+lookahead, so the collected batch is
// exactly the set of events the sequential engine would process over the
// same span; a control event (fn) bounds the window because it may mutate
// shared fleet state (sessions, device power) mid-span. The result reuses
// the engine's batch buffer and is valid until the next call.
func (e *engine) collectBatch(deadline, budget int64) []*event {
	horizon := e.queue[0].at + e.lookahead
	if horizon < e.queue[0].at { // overflow guard for astronomical clocks
		horizon = math.MaxInt64
	}
	batch := e.batch[:0]
	for len(e.queue) > 0 && int64(len(batch)) < budget {
		h := e.queue[0]
		if !h.isDelivery() || h.at >= horizon || h.at > deadline {
			break
		}
		batch = append(batch, e.queue.pop())
	}
	e.batch = batch
	return batch
}

// Duration helpers: the virtual clock counts nanoseconds.
func ns(d time.Duration) int64 { return int64(d) }

// String renders the clock for debug output.
func (e *engine) String() string {
	return fmt.Sprintf("t=%s queued=%d processed=%d",
		time.Duration(e.now), len(e.queue), e.processed)
}
