package migrate

// Scenario registry: the single definition of every named migration
// scenario the controller plans, qualifies, guards and chaos-tests. The
// planner (and through it centraliumd, planctl and the guard), the chaos
// harness, cmd/qualify, cmd/rpactl and the Figure 10 experiment all read
// this table; adding a scenario is adding one entry.

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
	"centralium/internal/traffic"
	"centralium/internal/workload"
)

// Scenario is one named migration scenario: a seeded pre-migration fleet,
// the RPA intent rolled out on it, the workload and watch set that measure
// the transient, and the drain body the intent exists to make safe.
type Scenario struct {
	// Name identifies the scenario ("fig10", "decommission", "pod-drain").
	Name string

	// Build returns the scenario's fleet for a seed, converged to its
	// pre-migration steady state.
	Build func(seed int64) (*fabric.Network, error)

	// Intent compiles the scenario's RPA intent over the built topology:
	// the migration itself for fig10, the protection for the drain
	// scenarios. Every call tags fresh config versions.
	Intent func(t *topo.Topology) controller.Intent
	// OriginAltitude anchors the rollout's §5.3.2 layer ordering.
	OriginAltitude int

	// Demands builds the traffic matrix over the built topology.
	Demands func(t *topo.Topology) []traffic.Demand
	// Prefixes are the destinations whose reachability checkers assert.
	Prefixes []netip.Prefix
	// Protected are the devices carrying a protective intent; the chaos
	// MinNextHop/KeepFibWarm invariant inspects them.
	Protected []topo.DeviceID
	// WatchLayer is the layer whose peak traffic share is the funneling
	// metric (see Watch).
	WatchLayer topo.Layer

	// Drains is the migration body: the devices drained, in order,
	// Stagger apart. fig10 has none; its rollout schedule is the whole
	// hazard.
	Drains  []topo.DeviceID
	Stagger time.Duration
}

// Scenarios returns the registry in display order.
func Scenarios() []Scenario { return slices.Clone(registry) }

// ScenarioNamed returns the named registry entry.
func ScenarioNamed(name string) (Scenario, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range registry {
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (have %v)", name, names)
}

// Watch lists the built topology's devices on the scenario's watch layer.
func (s Scenario) Watch(t *topo.Topology) []topo.DeviceID {
	var out []topo.DeviceID
	for _, d := range t.ByLayer(s.WatchLayer) {
		out = append(out, d.ID)
	}
	return out
}

// Span is the virtual time from the first scheduled drain to just past
// the last — the window chaos fault planners aim for.
func (s Scenario) Span() time.Duration { return time.Duration(len(s.Drains)) * s.Stagger }

// Deploy rolls the scenario's intent out on n through the controller,
// routing every config push through push (the chaos injector wraps it to
// delay pushes) and converging between waves.
func (s Scenario) Deploy(n *fabric.Network, push controller.DeployFunc) error {
	ctl := &controller.Controller{Topo: n.Topo, Deploy: push, Settle: func() { n.Converge() }}
	return ctl.Run(controller.Rollout{Intent: s.Intent(n.Topo), OriginAltitude: s.OriginAltitude})
}

// ScheduleDrains schedules the drain body on n's virtual clock, relative
// to now. The caller converges afterwards.
func (s Scenario) ScheduleDrains(n *fabric.Network) {
	for i, dev := range s.Drains {
		d := dev
		n.After(time.Duration(i)*s.Stagger, func() { n.SetDrained(d, true) })
	}
}

// northbound is the uniform FSW → default-route workload of the
// backbone-facing scenarios.
func northbound(t *topo.Topology) []traffic.Demand {
	return traffic.UniformDemands(t.ByLayer(topo.LayerFSW), DefaultRoute, 100)
}

// Pod-drain geometry: a two-pod fabric where pod 1's FSWs undergo rolling
// maintenance, one spine plane at a time, keeping the last plane live.
const (
	drainPods         = 2
	drainRSWsPerPod   = 3
	drainPlanes       = 3
	drainSSWsPerPlane = 2
	drainSourcePod    = 0
	drainTargetPod    = 1
)

// deviceIDs lists id(i) for i in [0, n).
func deviceIDs(n int, id func(i int) topo.DeviceID) []topo.DeviceID {
	out := make([]topo.DeviceID, n)
	for i := range out {
		out[i] = id(i)
	}
	return out
}

var (
	// drainSources are the source pod's RSWs, which carry the pod-drain
	// RPA's route attributes.
	drainSources = deviceIDs(drainRSWsPerPod, func(r int) topo.DeviceID { return topo.RSWID(drainSourcePod, r) })
	// drainTargets are the target pod's rack prefixes.
	drainTargets = func() []netip.Prefix {
		var out []netip.Prefix
		for r := 0; r < drainRSWsPerPod; r++ {
			out = append(out, workload.RackPrefix(drainTargetPod, r))
		}
		return out
	}()
)

// registry is the scenario table, in display order.
var registry = []Scenario{
	{
		// §5.3.2 deployment sequencing (Figure 10): the equalization RPA
		// over the FSW/SSW/FA column, watching the FA layer for transient
		// funneling.
		Name: "fig10",
		Build: func(seed int64) (*fabric.Network, error) {
			n := fabric.New(topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2}), fabric.Options{Seed: seed})
			n.OriginateAt(topo.EBID(0), DefaultRoute, []string{BackboneCommunity}, 0)
			n.Converge()
			return n, nil
		},
		Intent: func(t *topo.Topology) controller.Intent {
			return controller.PathEqualizationIntent(t,
				[]topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA}, BackboneCommunity)
		},
		OriginAltitude: topo.LayerEB.Altitude(),
		Demands:        northbound,
		WatchLayer:     topo.LayerFA,
	},
	// The Figure 4 last-router decommission (§3.3, §4.4.2) at
	// RunScenario2's defaults: the native arm black-holes transiently when
	// the last same-numbered FADU drains; capacity protection at 75% with
	// a warm FIB does not.
	Scenario2Params{KeepFibWarm: true}.scenario(),
	{
		// Rolling FSW maintenance on the full fabric topology. An SSW on
		// plane f reaches pod P's rack prefixes only through FSW(P,f), so
		// draining that FSW races its withdrawal through the SSWs against
		// traffic still arriving from the other pod: the native arm
		// black-holes transiently at the plane's SSWs. The RPA weights
		// zero toward the source pod's own FSWs on the doomed planes, so
		// traffic leaves the source RSWs only via the surviving plane and
		// the drains withdraw idle paths.
		Name: "pod-drain",
		Build: func(seed int64) (*fabric.Network, error) {
			n := fabric.New(topo.BuildFabric(topo.FabricParams{
				Pods: drainPods, RSWsPerPod: drainRSWsPerPod,
				FSWsPerPod: drainPlanes, Planes: drainPlanes, SSWsPerPlane: drainSSWsPerPlane,
				Grids: 1, FADUsPerGrid: 2, FAUUsPerGrid: 2, EBs: 2,
			}), fabric.Options{Seed: seed})
			origins := workload.SeedRackPrefixes(n)
			for _, p := range drainTargets {
				if _, ok := origins[p]; !ok {
					return nil, fmt.Errorf("pod-drain: no origin for %v", p)
				}
			}
			n.Converge()
			return n, nil
		},
		Intent: func(*topo.Topology) controller.Intent {
			doomed := deviceIDs(drainPlanes-1, func(f int) topo.DeviceID { return topo.FSWID(drainSourcePod, f) })
			return controller.DrainWeightIntent(drainSources,
				core.Destination{Community: workload.RackCommunity}, controller.DeviceRegex(doomed...))
		},
		OriginAltitude: topo.LayerRSW.Altitude(),
		Demands: func(*topo.Topology) []traffic.Demand {
			var out []traffic.Demand
			for _, p := range drainTargets {
				for _, src := range drainSources {
					out = append(out, traffic.Demand{Source: src, Prefix: p, Volume: 100})
				}
			}
			return out
		},
		Prefixes:   drainTargets,
		Protected:  drainSources,
		WatchLayer: topo.LayerSSW, // the plane SSWs the drains race against
		Drains:     deviceIDs(drainPlanes-1, func(f int) topo.DeviceID { return topo.FSWID(drainTargetPod, f) }),
		Stagger:    25 * time.Millisecond,
	},
}
