package planner

import "testing"

// TestPodDrainWatchesCrossedLayer checks that pod-drain's funneling
// watch set is a layer its traffic crosses: the §5.3.2 bottom-up
// rollout must show a non-zero peak share there, or what-if
// max_funnel_share and guard share= bounds could never trip on it.
func TestPodDrainWatchesCrossedLayer(t *testing.T) {
	snap, p, err := ScenarioSetup("pod-drain", 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ScoreSchedule(snap, p, s.BaselineSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.PeakShare <= 0 {
		t.Fatalf("bottom-up peak share on %v is %.3f, want > 0", p.Watch, rep.Total.PeakShare)
	}
}
