// Command fabsim builds an emulated data center fabric, converges BGP on
// it, and reports routing and traffic state — a one-shot fabric simulator
// for exploring the substrate underneath Centralium.
//
// Usage:
//
//	fabsim -pods 2 -planes 4 -grids 2 -seed 42 [-verbose]
//
// Chaos mode replays a seeded fault plan against a live migration
// scenario and reports the invariant-checker verdicts (see
// internal/chaos); the full canonical log reproduces any failing seed:
//
//	fabsim -chaos -scenario decommission -arm rpa -seed 7 [-faults 6] [-chaos-log]
//
// Checkpoint/restore (see internal/snapshot): -checkpoint writes the full
// converged simulation state — event queue, RIBs, FIBs, RPAs, RNG
// position, clock — to a file; -restore resumes from one as if the run
// had never stopped; -fork proves N restored copies are byte-identical:
//
//	fabsim -pods 4 -seed 7 -checkpoint state.csnp
//	fabsim -restore state.csnp [-fork 3]
//
// An unhealthy chaos run with -checkpoint-dir auto-drops a snapshot of
// its last clean pre-migration point; -replay reproduces the failing run
// byte-for-byte from that file alone:
//
//	fabsim -chaos -scenario pod-drain -seed 1 -checkpoint-dir /tmp/ckpt
//	fabsim -replay /tmp/ckpt/chaos-pod-drain-native-seed1.csnp -chaos-log
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"centralium/internal/chaos"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
	"centralium/internal/workload"
)

func main() {
	var (
		pods    = flag.Int("pods", 2, "fabric pods")
		rsws    = flag.Int("rsws", 4, "RSWs per pod")
		planes  = flag.Int("planes", 4, "spine planes (= FSWs per pod)")
		ssws    = flag.Int("ssws", 2, "SSWs per plane")
		grids   = flag.Int("grids", 2, "FA grids")
		fadus   = flag.Int("fadus", 2, "FADUs per grid")
		fauus   = flag.Int("fauus", 2, "FAUUs per grid")
		ebs     = flag.Int("ebs", 2, "backbone devices")
		seed    = flag.Int64("seed", 42, "emulation seed")
		verbose = flag.Bool("verbose", false, "print per-device forwarding state")
		save    = flag.String("save", "", "write the topology as JSON and exit")
		load    = flag.String("load", "", "load the topology from a JSON file instead of building")
		rackPfx = flag.Bool("rack-prefixes", false, "originate one /24 per rack and run east-west traffic")

		chaosMode = flag.Bool("chaos", false, "run a chaos scenario instead of the plain build")
		scenario  = flag.String("scenario", "decommission", "chaos scenario ("+strings.Join(chaos.Scenarios(), " | ")+")")
		arm       = flag.String("arm", "native", "chaos arm (native | rpa)")
		faults    = flag.Int("faults", 4, "chaos faults to plan")
		chaosLog  = flag.Bool("chaos-log", false, "print the full canonical chaos run log")
		chaosDir  = flag.String("checkpoint-dir", "", "chaos: drop a replayable snapshot of the last clean point when the run ends unhealthy")
		replay    = flag.String("replay", "", "replay a chaos checkpoint file and exit")

		checkpoint = flag.String("checkpoint", "", "after convergence, write the full simulation state to this snapshot file")
		restore    = flag.String("restore", "", "resume from a snapshot file instead of building and converging")
		forkN      = flag.Int("fork", 0, "with -restore: fork N independent copies and verify byte-identical state")
	)
	flag.Parse()

	if *replay != "" {
		runReplay(*replay, *chaosLog)
		return
	}
	if *chaosMode {
		runChaos(*scenario, *arm, *seed, *faults, *chaosLog, *chaosDir)
		return
	}
	if *restore != "" {
		runRestore(*restore, *forkN, *verbose)
		return
	}

	var tp *topo.Topology
	if *load != "" {
		data, err := os.ReadFile(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
			os.Exit(1)
		}
		tp, err = topo.ImportJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		tp = topo.BuildFabric(topo.FabricParams{
			Pods: *pods, RSWsPerPod: *rsws, FSWsPerPod: *planes, Planes: *planes,
			SSWsPerPlane: *ssws, Grids: *grids, FADUsPerGrid: *fadus,
			FAUUsPerGrid: *fauus, EBs: *ebs,
		})
	}
	if err := tp.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fabsim: invalid topology: %v\n", err)
		os.Exit(1)
	}
	if *save != "" {
		data, err := tp.ExportJSON()
		if err == nil {
			err = os.WriteFile(*save, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d devices, %d links)\n", *save, tp.NumDevices(), tp.NumLinks())
		return
	}
	fmt.Printf("topology: %d devices, %d links\n", tp.NumDevices(), tp.NumLinks())
	for _, l := range tp.Layers() {
		fmt.Printf("  %-5s x %d\n", l, len(tp.ByLayer(l)))
	}

	n := fabric.New(tp, fabric.Options{Seed: *seed})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	events := n.Converge()
	fmt.Printf("\nconverged after %d events (virtual time %.1f ms)\n", events, float64(n.Now())/1e6)

	summarize(n, tp)

	if *rackPfx {
		prefixes := workload.SeedRackPrefixes(n)
		more := n.Converge()
		rep := workload.CheckAnyToAny(n, workload.EastWestDemands(n, prefixes, 10, 8, *seed))
		fmt.Printf("\nrack prefixes: %d originated (%d more events)\n", len(prefixes), more)
		fmt.Printf("east-west: %d flows, delivered %.1f%%, blackholed %.1f%%, max util %.3f\n",
			rep.Flows, rep.Delivered*100, rep.Blackholed*100, rep.MaxLinkUtil)
	}

	if *checkpoint != "" {
		snap, err := snapshot.Capture(n)
		var enc []byte
		if err == nil {
			enc, err = snap.Encode()
		}
		if err == nil {
			err = os.WriteFile(*checkpoint, enc, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabsim: checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ncheckpoint: wrote %s (%d bytes)\n", *checkpoint, len(enc))
	}

	if *verbose {
		printNextHops(n, tp)
	}
}

// summarize prints the fleet routing and northbound traffic state — the
// same report whether the network was just converged or just restored.
func summarize(n *fabric.Network, tp *topo.Topology) {
	var updates, withdrawals int
	for _, d := range tp.Devices() {
		st := n.Speaker(d.ID).Stats()
		updates += st.UpdatesReceived
		withdrawals += st.WithdrawalsSent
	}
	fmt.Printf("fleet: %d updates received, %d withdrawals sent\n", updates, withdrawals)

	// Northbound traffic check: every RSW sends toward the default route.
	pr := &traffic.Propagator{Net: n}
	res := pr.Run(traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100))
	fmt.Printf("\ntraffic: injected %.0f, delivered %.1f%%, blackholed %.1f%%, max link util %.3f\n",
		res.Injected, res.DeliveredFraction()*100, res.BlackholedFraction()*100, res.MaxUtilization(tp))
}

func printNextHops(n *fabric.Network, tp *topo.Topology) {
	fmt.Println("\nper-device default-route next hops:")
	devs := tp.Devices()
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	for _, d := range devs {
		nh := n.NextHopWeights(d.ID, migrate.DefaultRoute)
		if len(nh) == 0 {
			continue
		}
		fmt.Printf("  %-14s ->", d.ID)
		var peers []string
		for peer, w := range nh {
			peers = append(peers, fmt.Sprintf(" %s(w%d)", peer, w))
		}
		sort.Strings(peers)
		for _, p := range peers {
			fmt.Print(p)
		}
		fmt.Println()
	}
}

// runRestore resumes from a snapshot file: the restored network carries
// the captured run's full state, so the summary it prints matches what
// the original process would have printed had it continued.
func runRestore(path string, forkN int, verbose bool) {
	snap, err := snapshot.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
		os.Exit(1)
	}
	n, err := snap.Restore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
		os.Exit(1)
	}
	tp := n.Topo
	fmt.Printf("restored %s: %d devices, %d links, virtual time %.1f ms\n",
		path, tp.NumDevices(), tp.NumLinks(), float64(n.Now())/1e6)

	if forkN > 0 {
		forks, err := snap.Fork(forkN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabsim: fork: %v\n", err)
			os.Exit(1)
		}
		// Fingerprint via re-capture (not snap.Encode) so snapshot
		// metadata — e.g. a chaos checkpoint's run parameters — doesn't
		// enter the state comparison.
		refSnap, err := snapshot.Capture(n)
		var ref []byte
		if err == nil {
			ref, err = refSnap.Encode()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabsim: fork: %v\n", err)
			os.Exit(1)
		}
		for i, f := range forks {
			fsnap, err := snapshot.Capture(f)
			var enc []byte
			if err == nil {
				enc, err = fsnap.Encode()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "fabsim: fork %d: %v\n", i, err)
				os.Exit(1)
			}
			if !bytes.Equal(enc, ref) {
				fmt.Fprintf(os.Stderr, "fabsim: fork %d diverged from the snapshot\n", i)
				os.Exit(1)
			}
		}
		fmt.Printf("forked %d independent copies: state fingerprints identical (%d bytes each)\n",
			forkN, len(ref))
	}

	fmt.Println()
	summarize(n, tp)
	if verbose {
		printNextHops(n, tp)
	}
}

// runReplay reproduces an auto-dropped chaos checkpoint: same verdicts,
// same canonical log, from the file alone.
func runReplay(path string, printLog bool) {
	res, err := chaos.Replay(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
		os.Exit(1)
	}
	printChaos(res, printLog)
}

// runChaos executes one seeded chaos run and prints its verdicts. The
// same seed always reproduces the same run, so a failing seed from CI can
// be replayed here with -chaos-log for the full event stream.
func runChaos(scenario, armName string, seed int64, faults int, printLog bool, checkpointDir string) {
	var arm chaos.Arm
	switch armName {
	case "native":
		arm = chaos.ArmNative
	case "rpa":
		arm = chaos.ArmRPA
	default:
		fmt.Fprintf(os.Stderr, "fabsim: unknown arm %q (native | rpa)\n", armName)
		os.Exit(1)
	}
	res, err := chaos.Run(chaos.RunParams{
		Scenario: scenario, Arm: arm, Seed: seed, Faults: faults,
		CheckpointDir: checkpointDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabsim: %v\n", err)
		os.Exit(1)
	}
	printChaos(res, printLog)
}

func printChaos(res chaos.RunResult, printLog bool) {
	fmt.Printf("chaos %s arm=%s seed=%d\n", res.Scenario, res.Arm, res.Seed)
	fmt.Printf("faults: %d injected, %d suppressed\n", res.FaultsInjected, res.FaultsSuppressed)
	fmt.Printf("continuous: %d raw violations, %d effective (outside fault grace)\n",
		res.RawViolations, res.EffectiveViolations)
	fmt.Printf("quiescent: %d violations after convergence (%d events)\n", len(res.Quiescent), res.Events)
	for _, v := range res.Quiescent {
		fmt.Printf("  %s\n", v)
	}
	if res.Checkpoint != "" {
		fmt.Printf("checkpoint: %s (replay with fabsim -replay %s)\n", res.Checkpoint, res.Checkpoint)
	}
	if printLog {
		fmt.Printf("\n--- canonical log ---\n%s", res.Log)
	}
	if res.EffectiveViolations > 0 || len(res.Quiescent) > 0 {
		os.Exit(2)
	}
}
