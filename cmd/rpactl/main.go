// Command rpactl is the operator debugging tool of the paper's Section 7.2:
// it shows all active RPAs on a switch and explains, for a given route,
// which RPA statement and path set govern it and why. Because the fleet is
// emulated, rpactl first stands up a named scenario, then inspects it.
//
// Usage:
//
//	rpactl -scenario expansion -device ssw.pl0.0 -cmd show
//	rpactl -scenario expansion -device ssw.pl0.0 -cmd explain -prefix 0.0.0.0/0
//	rpactl -scenario fig9      -device r6        -cmd fib
//	rpactl -scenario decommission -cmd explain -prefix 0.0.0.0/0
//
// Besides expansion and fig9, -scenario accepts every migration-registry
// scenario (fig10, decommission, pod-drain): its converged base with the
// scenario's RPA intent rolled out.
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/rpadebug"
	"centralium/internal/topo"
)

func main() {
	var (
		scenario = flag.String("scenario", "expansion", "scenario to stand up: "+scenarioNames())
		device   = flag.String("device", "", "device to inspect (default: a scenario-appropriate one)")
		command  = flag.String("cmd", "show", "show | explain | fib")
		prefix   = flag.String("prefix", "0.0.0.0/0", "prefix for -cmd explain")
		seed     = flag.Int64("seed", 42, "emulation seed")
	)
	flag.Parse()

	n, defaultDev, err := buildScenario(*scenario, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpactl: %v\n", err)
		os.Exit(1)
	}
	dev := topo.DeviceID(*device)
	if dev == "" {
		dev = defaultDev
	}

	switch *command {
	case "show":
		fmt.Print(rpadebug.ListRPAs(n, dev))
	case "explain":
		p, err := netip.ParsePrefix(*prefix)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpactl: bad prefix: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rpadebug.ExplainRoute(n, dev, p))
	case "fib":
		fmt.Print(rpadebug.DumpFIB(n, dev))
	default:
		fmt.Fprintf(os.Stderr, "rpactl: unknown command %q\n", *command)
		os.Exit(2)
	}
}

// buildScenario stands up a converged, RPA-equipped network for inspection.
func buildScenario(name string, seed int64) (*fabric.Network, topo.DeviceID, error) {
	switch name {
	case "expansion":
		exp := topo.BuildExpansion(topo.ExpansionParams{})
		for i := 0; i < exp.Params.FAv2s; i++ {
			exp.ActivateFAv2(i)
		}
		n := fabric.New(exp.Topology, fabric.Options{Seed: seed})
		for i := 0; i < exp.Params.Backbones; i++ {
			n.OriginateAt(topo.EBID(i), migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
		}
		n.Converge()
		intent := controller.PathEqualizationIntent(exp.Topology, []topo.Layer{topo.LayerSSW}, migrate.BackboneCommunity)
		for dev, cfg := range intent {
			if err := n.DeployRPA(dev, cfg); err != nil {
				return nil, "", err
			}
		}
		n.Converge()
		return n, topo.SSWID(0, 0), nil

	case "fig9":
		tp := topo.BuildFig9(100)
		tp.AddDevice(topo.Device{ID: "r0", Layer: topo.LayerGeneric, Pod: -1, Plane: -1, Grid: -1})
		tp.AddLink("r0", topo.GenericID(1), 100)
		n := fabric.New(tp, fabric.Options{Seed: seed, SpeakerConfig: func(*topo.Device) bgp.Config {
			return bgp.Config{Multipath: true}
		}})
		n.SetPrependToward(topo.GenericID(1), topo.GenericID(5), 2)
		n.OriginateAt("r0", netip.MustParsePrefix("198.51.100.0/24"), []string{"D"}, 0)
		n.Converge()
		rpa := &core.Config{PathSelection: []core.PathSelectionStatement{{
			Name:        "balance-r2-r5",
			Destination: core.Destination{Community: "D"},
			PathSets: []core.PathSet{{
				Name:      "via-r2-r5",
				Signature: core.PathSignature{PeerRegex: controller.DeviceRegex(topo.GenericID(2), topo.GenericID(5))},
			}},
		}}}
		if err := n.DeployRPA(topo.GenericID(6), rpa); err != nil {
			return nil, "", err
		}
		n.Converge()
		return n, topo.GenericID(6), nil
	}
	return registryScenario(name, seed)
}

// registryScenario stands up a migration-registry scenario's converged
// base with the scenario's intent rolled out. It inspects the first
// protected device by default, else the first watched one.
func registryScenario(name string, seed int64) (*fabric.Network, topo.DeviceID, error) {
	s, err := migrate.ScenarioNamed(name)
	if err != nil {
		return nil, "", fmt.Errorf("unknown scenario %q (want %s)", name, scenarioNames())
	}
	n, err := s.Build(seed)
	if err != nil {
		return nil, "", err
	}
	if err := s.Deploy(n, n.DeployRPA); err != nil {
		return nil, "", err
	}
	dev := s.Watch(n.Topo)[0]
	if len(s.Protected) > 0 {
		dev = s.Protected[0]
	}
	return n, dev, nil
}

// scenarioNames lists every scenario -scenario accepts.
func scenarioNames() string {
	names := []string{"expansion", "fig9"}
	for _, s := range migrate.Scenarios() {
		names = append(names, s.Name)
	}
	return strings.Join(names, " | ")
}
