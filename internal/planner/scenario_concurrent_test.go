package planner

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// setupIdentity renders a scenario setup's base fingerprint and planning
// parameters, with the intent's process-global version tags zeroed.
func setupIdentity(t *testing.T, name string, seed int64) string {
	t.Helper()
	snap, p, err := ScenarioSetup(name, seed)
	if err != nil {
		t.Errorf("%s/%d: %v", name, seed, err)
		return ""
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		t.Errorf("%s/%d: fingerprint: %v", name, seed, err)
		return ""
	}
	for _, cfg := range p.Intent {
		cfg.Version = 0
	}
	js, err := json.Marshal(p)
	if err != nil {
		t.Errorf("%s/%d: marshal params: %v", name, seed, err)
		return ""
	}
	return fmt.Sprintf("%s %s", fp, js)
}

// TestScenarioSetupConcurrent builds every registry scenario from
// several goroutines at once, as centraliumd's snapshot cache does for
// cold requests on distinct (scenario, seed) keys. Run under -race it
// guards the shared state intent compilation touches; in any mode the
// concurrent setups must match serial ones byte for byte. Each key is
// built by several goroutines released together, so their intent
// compilations overlap.
func TestScenarioSetupConcurrent(t *testing.T) {
	type key struct {
		name string
		seed int64
	}
	var keys []key
	for _, name := range ScenarioNames() {
		for _, seed := range []int64{1, 2} {
			for range 4 {
				keys = append(keys, key{name, seed})
			}
		}
	}
	got := make([]string, len(keys))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = setupIdentity(t, k.name, k.seed)
		}()
	}
	close(start)
	wg.Wait()
	for i, k := range keys {
		if want := setupIdentity(t, k.name, k.seed); got[i] != want {
			t.Errorf("%s/%d: concurrent setup differs from serial", k.name, k.seed)
		}
	}
}
