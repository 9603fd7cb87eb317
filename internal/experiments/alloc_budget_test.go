package experiments

import (
	"runtime"
	"testing"
)

// TestConvergenceAllocBudget gates the allocation rate of the convergence
// hot path (engine queue, FIFO bookkeeping, outbox, duplicate suppression,
// Adj-RIB-In): one medium-scale, width-1, incremental converge at seed 42
// must stay at or under 12 allocations and 900 bytes per event. With a
// container/heap queue, a per-message delivery and FIFO key, a fresh outbox
// per flush, a key string per eligible session and a per-session
// Adj-RIB-In map, the same converge cost 16.7 allocations and 1,256 bytes
// per event. Both counts are deterministic for a fixed seed (the event
// count is asserted too), so the gate is tight.
func TestConvergenceAllocBudget(t *testing.T) {
	const (
		wantEvents     = 86880
		allocsPerEvent = 12.0
		bytesPerEvent  = 900.0
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := RunConvergenceMode(ConvergenceScales()[1], 42, 1, false)
	runtime.ReadMemStats(&after)
	if st.Events != wantEvents {
		t.Fatalf("medium converge processed %d events, want %d", st.Events, wantEvents)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(st.Events)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(st.Events)
	t.Logf("medium converge: %d events, %.2f allocs/event, %.0f B/event", st.Events, allocs, bytes)
	if allocs > allocsPerEvent {
		t.Errorf("%.2f allocs/event, budget %.0f", allocs, allocsPerEvent)
	}
	if bytes > bytesPerEvent {
		t.Errorf("%.0f B/event, budget %.0f", bytes, bytesPerEvent)
	}
}
