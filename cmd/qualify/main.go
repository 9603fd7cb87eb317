// Command qualify runs pre-deployment qualification suites (the paper's
// §7.1 emulation gate): it deploys an RPA change onto a reduced-scale
// emulated network through the real controller path, checks invariants
// during every transient and at steady state, and exits non-zero on any
// violation — wire it into CI in front of production pushes.
//
// Usage:
//
//	qualify -suite equalization          # the safe, sequenced rollout
//	qualify -suite equalization-topdown  # the Figure 10 hazard (fails)
//	qualify -suite protection            # the §4.4.2 decommission guard
//	qualify -all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/qualify"
	"centralium/internal/topo"
)

// suites builds the named qualification specs fresh (each owns a network).
func suites(seed int64) map[string]func() qualify.Spec {
	// base stands up a registry scenario's converged fleet as a spec
	// rolling out the scenario's intent, plus the scenario's watch set.
	base := func(name, title string) (qualify.Spec, []topo.DeviceID) {
		s, err := migrate.ScenarioNamed(name)
		var n *fabric.Network
		if err == nil {
			n, err = s.Build(seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qualify: %v\n", err)
			os.Exit(1)
		}
		return qualify.Spec{
			Name:           title,
			Net:            n,
			Intent:         s.Intent(n.Topo),
			OriginAltitude: s.OriginAltitude,
			Workload:       s.Demands(n.Topo),
		}, s.Watch(n.Topo)
	}

	return map[string]func() qualify.Spec{
		"equalization": func() qualify.Spec {
			spec, fas := base("fig10", "equalization (bottom-up)")
			spec.Invariants = []qualify.Invariant{
				qualify.NoBlackholes(),
				qualify.NoLoops(),
				qualify.FunnelBound(fas, 0.75),
				qualify.MinPaths(topo.FAID(0), "0.0.0.0/0", 2),
			}
			return spec
		},
		"equalization-topdown": func() qualify.Spec {
			spec, fas := base("fig10", "equalization (top-down, the Figure 10 hazard)")
			spec.Removal = true // wrong order on purpose
			spec.Invariants = []qualify.Invariant{
				qualify.NoBlackholes(),
				qualify.FunnelBound(fas, 0.75),
			}
			return spec
		},
		"protection": func() qualify.Spec {
			spec, _ := base("decommission", "capacity protection (§4.4.2)")
			spec.Invariants = []qualify.Invariant{
				qualify.NoBlackholes(),
				qualify.NoLoops(),
			}
			return spec
		},
	}
}

func main() {
	var (
		suite = flag.String("suite", "", "suite to run (see source for names)")
		all   = flag.Bool("all", false, "run every suite")
		seed  = flag.Int64("seed", 42, "emulation seed")
	)
	flag.Parse()

	available := suites(*seed)
	var names []string
	for name := range available {
		names = append(names, name)
	}
	sort.Strings(names)

	var toRun []string
	switch {
	case *all:
		toRun = names
	case *suite != "":
		if _, ok := available[*suite]; !ok {
			fmt.Fprintf(os.Stderr, "qualify: unknown suite %q (have %v)\n", *suite, names)
			os.Exit(2)
		}
		toRun = []string{*suite}
	default:
		fmt.Fprintf(os.Stderr, "qualify: pick -suite <name> or -all; suites: %v\n", names)
		os.Exit(2)
	}

	failed := false
	for _, name := range toRun {
		rep, err := qualify.Run(available[name]())
		if err != nil {
			fmt.Fprintf(os.Stderr, "qualify: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		if !rep.Passed {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
