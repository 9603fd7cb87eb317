// Command perfbench is centralium's end-to-end and per-layer benchmark.
//
// It runs one workload per process, reaching every layer only through
// its public functions, and prints one JSON result object as the last
// line of standard output:
//
//	perfbench --workload fleet-converge --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written to --trace-out at exit. See README.md for the
// workloads, the metric → layer → workload map and the output checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloadSpec names a workload and its native phase. Every workload
// runs all three phases, so every metric is measured on every workload;
// the native phase gets most of the time and the other two run as side
// probes (see workload.go).
type workloadSpec struct {
	name   string
	native string
}

var workloads = []workloadSpec{
	{"fleet-converge", phaseFleet},
	{"whatif-serve", phaseWhatIf},
	{"campaign-durable", phaseCampaign},
}

const (
	phaseFleet    = "fleet"
	phaseWhatIf   = "whatif"
	phaseCampaign = "campaign"
)

// config is one run's fixed inputs.
type config struct {
	workload workloadSpec
	seed     int64
	budget   time.Duration
	trace    bool
	nproc    int
	// work is a directory the run may write into (WAL data dirs).
	work string
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (fleet-converge, whatif-serve, campaign-durable)")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 30, "measurement budget of the run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	work := fs.String("work-dir", ".bench_build/work", "directory for the run's WAL data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, spec.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{
		workload: *spec,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		work:     dir,
	}
	rep, tr, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	meta := provenance(cfg, rep)
	if cfg.trace {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", spec.name, *seed))
		}
		if err := tr.write(out, meta); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		tr.printRollup(stderr)
		fmt.Fprintln(stdout, rep.overheadLine())
		for _, line := range rep.reconcile(tr) {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintf(stderr, "spans written to %s\n", out)
	}
	metaLine, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(stdout, string(metaLine))

	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEnd,
	}
	if cfg.trace {
		res.Metrics = rep.layer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// provenance is the host and build metadata stamped on every result.
func provenance(cfg config, rep *report) map[string]any {
	samples := make(map[string]int, len(rep.samples))
	for k, v := range rep.samples {
		samples[k] = v
	}
	return map[string]any{
		"workload":      cfg.workload.name,
		"seed":          cfg.seed,
		"seconds":       cfg.budget.Seconds(),
		"trace":         cfg.trace,
		"nproc":         cfg.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
		"samples":       samples,
		"series":        rep.seriesSummary(),
		"failures":      rep.failures,
	}
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
