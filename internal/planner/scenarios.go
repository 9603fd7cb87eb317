package planner

// Named scenario setups: each builds a converged base fabric from the
// migrate scenario registry, captures it, and returns the planning
// parameters for that scenario. planctl and the E12 experiment plan the
// same setups, so a CLI run reproduces an experiment's schedule exactly.

import (
	"fmt"
	"slices"

	"centralium/internal/migrate"
	"centralium/internal/snapshot"
)

// ScenarioNames lists the named setups, in display order.
func ScenarioNames() []string {
	var names []string
	for _, s := range migrate.Scenarios() {
		names = append(names, s.Name)
	}
	return names
}

// ScenarioSetup builds a named scenario's converged base snapshot and
// planning parameters. The seed feeds both the fabric (event jitter) and
// the planner (candidate generation). The scenario's intent is the
// searched rollout; its drain body, if any, replays on every terminal
// candidate to measure the transient the intent exists to prevent.
func ScenarioSetup(name string, seed int64) (*snapshot.Snapshot, Params, error) {
	s, err := migrate.ScenarioNamed(name)
	if err != nil {
		return nil, Params{}, fmt.Errorf("planner: %w", err)
	}
	n, err := s.Build(seed)
	if err != nil {
		return nil, Params{}, fmt.Errorf("planner: %s base: %w", name, err)
	}
	snap, err := snapshot.Capture(n)
	if err != nil {
		return nil, Params{}, fmt.Errorf("planner: %s base: %w", name, err)
	}
	p := Params{
		Seed:           seed,
		Intent:         s.Intent(n.Topo),
		OriginAltitude: s.OriginAltitude,
		Demands:        s.Demands(n.Topo),
		Watch:          s.Watch(n.Topo),
		Drain:          slices.Clone(s.Drains),
		DrainStaggerNs: int64(s.Stagger),
	}
	return snap, p, nil
}
