package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// report accumulates one run's operation counts, metrics and samples.
// Workload phases add to it from several goroutines.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	// failures keeps the first few failure messages for the metadata.
	failures []string
	log      io.Writer

	endToEnd map[string]metric
	layer    map[string]metric
	// samples is the sample count behind every timing metric.
	samples map[string]int
	// timings keeps raw samples per series: "name" untraced and
	// "name@traced" from the traced half of a traced run.
	timings map[string][]float64
	// headline names the native phase's main timing series, the one the
	// tracing-overhead line compares.
	headline string
}

func newReport(log io.Writer) *report {
	return &report{
		log:      log,
		endToEnd: map[string]metric{},
		layer:    map[string]metric{},
		samples:  map[string]int{},
		timings:  map[string][]float64{},
	}
}

// op records one attempted operation; err != nil counts it failed.
func (r *report) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
	fmt.Fprintf(r.log, "FAILED: %v\n", err)
	return false
}

// sample adds one timing sample; traced samples go to their own series.
func (r *report) sample(series string, v float64, traced bool) {
	if traced {
		series += "@traced"
	}
	r.mu.Lock()
	r.timings[series] = append(r.timings[series], v)
	r.mu.Unlock()
}

func (r *report) series(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.timings[name]...)
}

// family pools a series with its per-group series ("plan" with
// "plan/fig10", ...), from one half of a traced run.
func (r *report) family(name string, traced bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for k, v := range r.timings {
		base, isTraced := strings.CutSuffix(k, "@traced")
		if isTraced == traced && (base == name || strings.HasPrefix(base, name+"/")) {
			out = append(out, v...)
		}
	}
	return out
}

// setE2E records an end-to-end metric and its sample count.
func (r *report) setE2E(name, unit string, v float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endToEnd[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// setLayer records a per-layer metric.
func (r *report) setLayer(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = metric{Value: v, Unit: unit}
}

// medianE2E sets an end-to-end metric to the median of a series, both
// halves of a traced run pooled (only untraced runs report these).
func (r *report) medianE2E(name, unit, series string) {
	v := append(r.series(series), r.series(series+"@traced")...)
	r.setE2E(name, unit, median(v), len(v))
}

// groupQuantileE2E sets an end-to-end metric to the mean over groups
// (scenarios, drain layers) of each group's q-quantile. The groups
// differ in cost, and a quantile taken across all of them would sit in
// the gap between two groups and jump between runs.
func (r *report) groupQuantileE2E(name, series string, groups []string, q float64) {
	var qs []float64
	n := 0
	for _, g := range groups {
		v := append(r.series(series+"/"+g), r.series(series+"/"+g+"@traced")...)
		if len(v) > 0 {
			qs = append(qs, quantile(v, q))
			n += len(v)
		}
	}
	r.setE2E(name, "ms", mean(qs), n)
}

// seriesSummary is every raw timing series' count, p10, p25, p50, p90
// and p99.
func (r *report) seriesSummary() map[string][6]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][6]float64, len(r.timings))
	for k, v := range r.timings {
		out[k] = [6]float64{float64(len(v)), quantile(v, 0.1), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99)}
	}
	return out
}

// overheadLine compares the traced and untraced halves of the headline
// series: the tracing overhead of this run.
func (r *report) overheadLine() string {
	un, tr := r.family(r.headline, false), r.family(r.headline, true)
	mu, mt := median(un), median(tr)
	return fmt.Sprintf("tracing overhead: %s median traced %.4g (n=%d) vs untraced %.4g (n=%d): %+.2f%%",
		r.headline, mt, len(tr), mu, len(un), 100*(mt/mu-1))
}

// reconcile compares, for every timed operation with a span, the
// traced spans' median against the untraced samples' median: the span
// rollup agrees with the end-to-end numbers to within the tracing
// overhead.
func (r *report) reconcile(tr *tracer) []string {
	pairs := []struct{ series, span string }{
		{"converge", "fabric.converge_w1"}, {"converge_par", "fabric.converge_wn"},
		{"reconverge", "fabric.reconverge"}, {"whatif", "server.whatif"},
		{"plan", "server.plan"}, {"execute", "server.execute"}, {"recover", "store.recover"},
	}
	var out []string
	for _, p := range pairs {
		un, spans := r.family(p.series, false), tr.durations(p.span)
		if p.series == "converge" || p.series == "converge_par" {
			for i := range un {
				un[i] *= 1e3 // seconds to ms, as spans
			}
		}
		if len(un) == 0 || len(spans) == 0 {
			continue
		}
		mu, ms := median(un), median(spans)
		out = append(out, fmt.Sprintf("reconcile %s: span %s median %.4g ms (n=%d) vs untraced %.4g ms (n=%d): %+.2f%%",
			p.series, p.span, ms, len(spans), mu, len(un), 100*(ms/mu-1)))
	}
	return out
}

// median of a sample (NaN when empty).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the Harrell–Davis estimate of the q-quantile: a
// Beta-weighted mean of all order statistics. Unlike a single order
// statistic it moves smoothly when the sample has gaps between modes
// (reconverges of different device layers, memo hits vs computed
// what-ifs), so it does not jump between runs when a mode's count
// changes by one.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// the continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c, d := 1.0, 1-qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + 2*fm) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + 2*fm) * (qap + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// mix is splitmix64 over its inputs: the derivation of every per-op
// seed from the workload seed.
func mix(vs ...int64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		x ^= uint64(v)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// derive is a positive scenario/fabric seed from the workload seed, a
// stream tag and an index.
func derive(seed int64, tag string, i int) int64 {
	h := int64(0)
	for _, c := range tag {
		h = h*131 + int64(c)
	}
	return int64(mix(seed, h, int64(i))%1_000_000_000) + 1
}

// gitCommit is the VCS revision stamped into the binary, or the one
// .git in the working directory names; "unknown" outside a checkout.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(rev))
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so a result names the code it measured even where there is
// no git metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
