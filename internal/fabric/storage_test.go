package fabric

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"centralium/internal/bgp"
	"centralium/internal/topo"
)

// Storage bounds of the convergence hot path: the engine's recycled events
// and window buffer, each speaker's reused outbox, and the per-session FIFO
// slots that replaced the (session, receiver)-keyed map.

// originateFleet injects the backbone default at every EB and one /24 per
// rack, the shape of a cold fleet converge.
func originateFleet(n *Network) {
	for _, eb := range n.Topo.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, netip.MustParsePrefix("0.0.0.0/0"), []string{"BACKBONE_DEFAULT_ROUTE"}, 0)
	}
	for _, rsw := range n.Topo.ByLayer(topo.LayerRSW) {
		n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", rsw.Pod, rsw.Index)), nil, 0)
	}
}

// TestEnginePoolsReleasedOnDrain checks that recycled events and the
// parallel window buffer are engine storage for the duration of a run
// only: a drained queue retains neither, so a converged fabric (a cached
// what-if base, a planner fork) carries no pooled storage.
func TestEnginePoolsReleasedOnDrain(t *testing.T) {
	for _, w := range []int{1, 4} {
		n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: 42, Workers: w})
		originateFleet(n)
		n.Step(500)
		if n.PendingEvents() == 0 {
			t.Fatalf("width %d: queue drained within 500 events; the mid-run check is vacuous", w)
		}
		if cap(n.eng.free) == 0 {
			t.Fatalf("width %d: no event was recycled mid-run", w)
		}
		if w > 1 && cap(n.eng.batch) == 0 {
			t.Fatalf("width %d: no parallel window was collected mid-run", w)
		}
		n.Converge()
		if n.eng.free != nil || n.eng.batch != nil {
			t.Errorf("width %d: drained engine retains %d recycled events and a %d-slot window buffer",
				w, cap(n.eng.free), cap(n.eng.batch))
		}
		diffScenario(n) // control events, timed runs, session churn
		if n.eng.free != nil || n.eng.batch != nil {
			t.Errorf("width %d: engine retains pooled storage after the scenario drained", w)
		}
	}
}

// TestOutboxBufferBound checks each speaker's reused outbox: after a run
// it is empty, every slot it retains is zeroed (no message contents stay
// reachable), and its capacity is at most what single appends grow to for
// the device's largest flush and at most twice its peer count (a bulk
// trigger's flush, such as the scenario's drain, is not kept). The
// perturber sees every routed message, in flush order, so consecutive
// calls from one device within one event bound that device's flush size
// from above.
func TestOutboxBufferBound(t *testing.T) {
	n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: 42, Workers: 1})
	largest := map[topo.DeviceID]int{}
	var (
		cur   topo.DeviceID
		curEv int64 = -1
		run   int
	)
	n.SetPerturber(func(_ bgp.SessionID, from, _ topo.DeviceID, _ bgp.Update) Perturbation {
		if from != cur || n.eng.processed != curEv {
			cur, curEv, run = from, n.eng.processed, 0
		}
		run++
		if run > largest[from] {
			largest[from] = run
		}
		return Perturbation{}
	})
	diffScenario(n)

	grown := 0
	for _, d := range n.Topo.Devices() {
		sp := n.Speaker(d.ID)
		buf := sp.Outbox()
		if peers := len(sp.Peers()); cap(buf) > 2*peers {
			t.Errorf("%s: outbox capacity %d exceeds twice its %d peers", d.ID, cap(buf), peers)
		}
		if len(buf) != 0 {
			t.Errorf("%s: %d messages left in the outbox after convergence", d.ID, len(buf))
		}
		if limit := appendCap(largest[d.ID]); cap(buf) > limit {
			t.Errorf("%s: outbox capacity %d exceeds %d (largest flush %d messages)",
				d.ID, cap(buf), limit, largest[d.ID])
		}
		for i, m := range buf[:cap(buf)] {
			if m.Session != "" || m.Update.ASPath != nil || m.Update.Communities != nil {
				t.Fatalf("%s: retained outbox slot %d still holds a message for %s", d.ID, i, m.Session)
			}
		}
		if cap(buf) > 0 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no speaker kept an outbox buffer; the bound is vacuous")
	}
}

// appendCap is the capacity a nil []bgp.OutMsg reaches after k single
// appends: exactly the capacity of a buffer whose largest fill was k.
func appendCap(k int) int {
	var sim []bgp.OutMsg
	for i := 0; i < k; i++ {
		sim = append(sim, bgp.OutMsg{})
	}
	return cap(sim)
}

// fifoDigest hashes a checkpoint's FIFO table in order.
func fifoDigest(fifo []FIFOState) string {
	h := sha256.New()
	for _, f := range fifo {
		fmt.Fprintf(h, "%s %d\n", f.Key, f.At)
	}
	return fmt.Sprintf("%d:%x", len(fifo), h.Sum(nil)[:8])
}

// TestCheckpointFIFOUnchanged pins the FIFO table of a mid-convergence
// checkpoint to the value the (session, receiver)-keyed map produced
// before delivery order moved into per-session slots, then checks that a
// restore from that checkpoint continues byte-identically to the
// uninterrupted run at widths 1 and 4.
func TestCheckpointFIFOUnchanged(t *testing.T) {
	const (
		cut  = 1500
		want = "160:8b587ec682e89651"
	)
	build := func() *Network {
		n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: 42, Workers: 1})
		originateFleet(n)
		return n
	}
	final := func(n *Network) string {
		st, err := n.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		st.Batched = 0 // the only width-dependent counter
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	ref := build()
	ref.Converge()
	wantFinal := final(ref)

	n := build()
	n.Step(cut)
	if n.PendingEvents() == 0 {
		t.Fatalf("converged within %d events; the checkpoint is not mid-convergence", cut)
	}
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := fifoDigest(st.FIFO); got != want {
		t.Errorf("mid-convergence FIFO table digest %s, want %s", got, want)
	}
	for _, w := range []int{1, 4} {
		r, err := NewFromState(st, RestoreOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		r.Converge()
		if got := final(r); got != wantFinal {
			t.Errorf("width %d: restored run diverged from the uninterrupted one:\n%s", w, firstDiff(wantFinal, got))
		}
	}
}

// TestRestoreRejectsUnknownFIFOKey checks that a FIFO entry naming no
// session endpoint fails the restore instead of being dropped: the slots
// can only hold directions of real sessions.
func TestRestoreRejectsUnknownFIFOKey(t *testing.T) {
	n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: 42, Workers: 1})
	originateFleet(n)
	n.Step(200)
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.FIFO) == 0 {
		t.Fatal("no FIFO entries after 200 events")
	}
	if _, err := NewFromState(st, RestoreOptions{Workers: 1}); err != nil {
		t.Fatalf("restore of the untouched state: %v", err)
	}
	s := n.SessionList()[0]
	for _, key := range []string{"nope>" + string(s.A), string(s.ID) + ">nope", string(s.ID)} {
		st.FIFO[0].Key = key
		if _, err := NewFromState(st, RestoreOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "FIFO entry") {
			t.Errorf("FIFO key %q: restore error %v, want a FIFO entry error", key, err)
		}
	}
}
