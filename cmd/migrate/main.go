// Command migrate executes one of the paper's migration scenarios on the
// emulated fabric, with or without RPA protection, and prints the measured
// funneling / loss / next-hop-group metrics.
//
// Usage:
//
//	migrate -scenario 1 -rpa -seed 42
//	migrate -scenario 3 -prefixes 512
//	migrate -scenario 1 -guard -envelope "share=0.6" -max-retries 1
//	migrate -plan          # print all Table 3 step plans
//
// -guard runs the scenario's RPA campaign under the internal/guard
// execution supervisor instead of the bare measurement harness:
// telemetry-checked waves, rollback to last-good on an -envelope
// violation, up to -max-retries degraded retries per wave, quarantine
// and abort past that. The guarded campaigns come from the migration
// scenario registry, not from the measurement harness: scenario 1 guards
// the registry's fig10 campaign (the §5.3.2 equalization rollout on the
// Figure 10 fabric, not scenario 1's expansion fabric), and scenario 2
// the decommission campaign, on the same converged base scenario 2
// measures. Scenario 3 exercises hardware NHG limits that have no
// campaign form and cannot be guarded.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"centralium/internal/guard"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/topo"
)

func main() {
	var (
		scenario = flag.Int("scenario", 1, "scenario to run: 1 (first router), 2 (last router), 3 (NHG explosion)")
		useRPA   = flag.Bool("rpa", false, "protect the migration with RPAs")
		seed     = flag.Int64("seed", 42, "emulation seed")
		prefixes = flag.Int("prefixes", 256, "prefixes for scenario 3")
		plan     = flag.Bool("plan", false, "print the migration step plans instead of running")
		guardX   = flag.Bool("guard", false, "run the scenario's campaign under the guard supervisor")
		envSpec  = flag.String("envelope", "", "guard safety envelope, e.g. \"share=0.6,session-downs=0\" (empty: guard default)")
		retries  = flag.Int("max-retries", 0, "guard per-wave retry budget (0: guard default of 2; -1: abort on first violation)")
	)
	flag.Parse()

	if *plan {
		printPlans()
		return
	}

	if *guardX {
		if err := runGuarded(*scenario, *seed, *envSpec, *retries); err != nil {
			fmt.Fprintf(os.Stderr, "migrate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	switch *scenario {
	case 1:
		r := migrate.RunScenario1(migrate.Scenario1Params{Seed: *seed, UseRPA: *useRPA})
		fmt.Printf("scenario 1 (topology expansion), rpa=%v\n", *useRPA)
		fmt.Printf("  peak aggregation-device share: %.3f (fair %.3f)\n", r.PeakShare, r.FairShare)
		fmt.Printf("  final share after convergence: %.3f\n", r.FinalShare)
		fmt.Printf("  events: %d\n", r.Events)
	case 2:
		r := migrate.RunScenario2(migrate.Scenario2Params{Seed: *seed, UseRPA: *useRPA, KeepFibWarm: *useRPA})
		fmt.Printf("scenario 2 (decommission), rpa=%v\n", *useRPA)
		fmt.Printf("  peak FADU share: %.3f (fair %.3f)\n", r.PeakFADUShare, r.FairShare)
		fmt.Printf("  peak blackholed fraction: %.3f\n", r.PeakBlackholed)
		fmt.Printf("  events: %d\n", r.Events)
	case 3:
		r := migrate.RunScenario3(migrate.Scenario3Params{Seed: *seed, UseRPA: *useRPA, Prefixes: *prefixes})
		fmt.Printf("scenario 3 (WCMP convergence), rpa=%v\n", *useRPA)
		fmt.Printf("  peak next-hop groups on DU: %d (steady %d)\n", r.PeakNHG, r.SteadyNHG)
		fmt.Printf("  hardware overflows: %d, group churn: %d\n", r.Overflows, r.GroupChurn)
		fmt.Printf("  events: %d\n", r.Events)
	default:
		fmt.Fprintf(os.Stderr, "migrate: unknown scenario %d\n", *scenario)
		os.Exit(2)
	}
}

// guardedScenarios maps -scenario numbers to the registry scenario whose
// campaign -guard executes.
var guardedScenarios = map[int]string{1: "fig10", 2: "decommission"}

// runGuarded executes the scenario's campaign form under the guard and
// prints the decision log and outcome.
func runGuarded(scenario int, seed int64, envSpec string, maxRetries int) error {
	name, ok := guardedScenarios[scenario]
	if !ok {
		return fmt.Errorf("scenario %d has no campaign form to guard (use -scenario 1 or 2)", scenario)
	}
	env, err := guard.ParseEnvelope(envSpec)
	if err != nil {
		return err
	}
	snap, p, err := planner.ScenarioSetup(name, seed)
	if err != nil {
		return err
	}
	c := guard.FromParams(p)
	c.Name = fmt.Sprintf("%s-seed%d", name, seed)
	c.Envelope = env
	c.Retry.MaxRetries = maxRetries
	res, err := guard.Run(context.Background(), snap, c)
	if err != nil {
		return err
	}
	fmt.Print(res.Log)
	fmt.Printf("guard: %s (%d/%d waves, %d retried attempt(s), %d rollback(s))\n",
		res.State, res.WavesDone, res.Waves, res.Retries, res.Rollbacks)
	if res.Report != nil {
		fmt.Printf("incident: wave %d attempt %d, quarantined %v\n",
			res.Report.Wave, res.Report.Attempt, res.Report.Quarantined)
		for _, v := range res.Report.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	return nil
}

func printPlans() {
	tp := topo.BuildFabric(topo.FabricParams{})
	for _, c := range migrate.Categories() {
		fmt.Printf("%s %s\n", c.Label(), c)
		for _, withRPA := range []bool{false, true} {
			p := migrate.PlanFor(c, withRPA)
			mode := "without RPA"
			if withRPA {
				mode = "with RPA   "
			}
			fmt.Printf("  %s: %d steps, %.1f days\n", mode, p.NumSteps(), p.Days())
			for i, s := range p.Steps {
				fmt.Printf("    %d. %s\n", i+1, s.Name)
			}
		}
		fmt.Printf("  generated RPA: %d LOC\n\n", migrate.RPAIntentFor(c, tp).TotalLOC())
	}
}
