package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call across a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out. A
// nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sampled returns t for about half of all operations: those whose index
// hashes odd. Hashing keeps the traced half uncorrelated with anything
// the index encodes, such as the device layer of a drain.
func (t *tracer) sampled(i int) *tracer {
	if t == nil || mix(int64(i))&1 == 0 {
		return nil
	}
	return t
}

// active is an open span; end closes it. Methods are nil-safe.
type active struct {
	t  *tracer
	sp span
}

// request opens a root span with a fresh request id.
func (t *tracer) request(name string) *active {
	if t == nil {
		return nil
	}
	return t.open(name, 0, t.reqs.Add(1))
}

// child opens a span under a (possibly nil) parent.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return a.t.open(name, a.sp.ID, a.sp.Req)
}

func (t *tracer) open(name string, parent, req int64) *active {
	return &active{t: t, sp: span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.sp)
	a.t.mu.Unlock()
}

// durations returns every closed span's duration in ms, by name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// rollupRow is one span name's self-time total.
type rollupRow struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// rollup computes self time per span name: a span's duration minus the
// part of its interval that its children cover.
func (t *tracer) rollup() []rollupRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*rollupRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			layer, _, _ := strings.Cut(s.Name, ".")
			r = &rollupRow{Name: s.Name, Layer: layer}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalMs += float64(d) / 1e6
		r.SelfMs += float64(d-covered(s, children[s.ID])) / 1e6
	}
	out := make([]rollupRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer (the span-name prefix).
func layerSelf(rows []rollupRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		out[r.Layer] += r.SelfMs
	}
	return out
}

// write saves the span buffer, the rollup and the run metadata.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(map[string]any{
		"meta":   meta,
		"rollup": t.rollup(),
		"spans":  spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printRollup writes the per-layer self-time table.
func (t *tracer) printRollup(w io.Writer) {
	rows := t.rollup()
	fmt.Fprintf(w, "%-28s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %7d %12.2f %12.2f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
	self := layerSelf(rows)
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(w, "layer %-22s self %10.2f ms\n", l, self[l])
	}
}
