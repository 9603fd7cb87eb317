package planner

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"centralium/internal/chaos"
)

// checkGolden compares got against testdata/<name>, rewriting the file
// first under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestScenarioBaseGolden pins the converged pre-migration base of every
// named scenario at three seeds. A base that changes — different
// geometry, originations or convergence — changes every plan, what-if
// and execute built on it, so the fingerprints are pinned byte for byte.
func TestScenarioBaseGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range ScenarioNames() {
		for _, seed := range []int64{1, 7, 42} {
			snap, _, err := ScenarioSetup(name, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}
			fp, err := snap.Fingerprint()
			if err != nil {
				t.Fatalf("%s/%d: fingerprint: %v", name, seed, err)
			}
			fmt.Fprintf(&b, "%s/%d %s\n", name, seed, fp)
		}
	}
	checkGolden(t, "scenario_bases.golden", b.String())
}

// TestChaosLogGolden pins the canonical chaos log of every chaos
// scenario on both arms at seed 7: the base, the protective rollout, the
// drain body and the fault plan all feed it.
func TestChaosLogGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range chaos.Scenarios() {
		for _, arm := range []chaos.Arm{chaos.ArmNative, chaos.ArmRPA} {
			res, err := chaos.Run(chaos.RunParams{Scenario: sc, Arm: arm, Seed: 7})
			if err != nil {
				t.Fatalf("%s/%s: %v", sc, arm, err)
			}
			fmt.Fprintf(&b, "%s/%s/7 %x\n", sc, arm, sha256.Sum256([]byte(res.Log)))
		}
	}
	checkGolden(t, "chaos_logs.golden", b.String())
}
