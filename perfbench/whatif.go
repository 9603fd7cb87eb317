package main

// The what-if phase: an in-process centraliumd behind an httptest
// loopback server, driven by nproc closed-loop server.Client callers
// posting /v1/whatif. Six warm bases (every scenario × 2 seeds) fit the
// 8-entry snapshot LRU; 1 request in 48 names a fresh seed outside the
// warm set, which exercises the cold-build and evict path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"centralium/internal/planner"
	"centralium/internal/server"
)

// The request mix. Shares are chosen so that neither reported
// percentile sits on the boundary between two latency modes, where it
// would jump between runs: with 5/8 of requests no_memo the median falls
// inside the computed mode, not between it and the memo-hit mode; with
// 1 in 48 requests naming a fresh base, the p99 falls in the middle of
// the cold-build mode.
const (
	warmSeeds     = 2  // seeds per scenario in the warm set
	freshSeeds    = 8  // fresh seeds per scenario in the cold pool
	freshOneIn    = 48 // one request in freshOneIn names a fresh seed
	noMemoEighths = 5  // eighths of requests sent no_memo
)

// whatifCase is one distinct what-if computation and its verdict as the
// serial reference daemon renders it.
type whatifCase struct {
	req  server.WhatIfRequest
	want []byte
}

type whatifPhase struct {
	warm  []whatifCase
	fresh []whatifCase

	srv    *server.Server
	hs     *httptest.Server
	client *server.Client

	callers []*caller
	bursts  int
	// lat holds every checked completion's latency in completion order.
	lat  []float64
	busy time.Duration
}

// verdict is the part of a what-if response the output check compares.
func verdict(r *server.WhatIfResponse) []byte {
	b, _ := json.Marshal(struct {
		Fingerprint string
		Passed      bool
		Events      int64
		Violations  []server.GateViolation
	}{r.Fingerprint, r.Passed, r.Events, r.Violations})
	return b
}

// templates are the request shapes posted against every warm base: the
// §5.3.2 baseline order, a funnel bound, the reversed baseline under a
// funnel bound (a failing verdict), and thinned sampling with a
// utilization bound.
func templates(scenario string, seed int64) ([]server.WhatIfRequest, error) {
	snap, p, err := planner.ScenarioSetup(scenario, seed)
	if err != nil {
		return nil, err
	}
	s, err := planner.NewSearch(snap, p)
	if err != nil {
		return nil, err
	}
	waves := s.BaselineSchedule().Waves()
	for i, j := 0, len(waves)-1; i < j; i, j = i+1, j-1 {
		waves[i], waves[j] = waves[j], waves[i]
	}
	reversed := planner.FromWaves(waves).String()
	base := server.WhatIfRequest{Scenario: scenario, Seed: seed}
	out := []server.WhatIfRequest{base, base, base, base}
	out[1].MaxFunnelShare = 0.5
	out[2].Schedule, out[2].MaxFunnelShare = reversed, 0.5
	out[3].SampleEvery, out[3].MaxLinkUtilization = 8, 0.9
	return out, nil
}

// prepare builds the request mix from the workload seed and renders
// every distinct computation once on a serial (Workers 1) daemon.
func (w *whatifPhase) prepare(cfg config) error {
	ref := server.New(server.Config{Workers: 1})
	render := func(req server.WhatIfRequest) (whatifCase, error) {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return whatifCase{}, fmt.Errorf("reference what-if %s/%d: status %d: %s", req.Scenario, req.Seed, rec.Code, rec.Body.Bytes())
		}
		var resp server.WhatIfResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return whatifCase{}, err
		}
		return whatifCase{req: req, want: verdict(&resp)}, nil
	}
	for _, sc := range planner.ScenarioNames() {
		for i := 0; i < warmSeeds; i++ {
			reqs, err := templates(sc, derive(cfg.seed, "warm/"+sc, i))
			if err != nil {
				return err
			}
			for _, req := range reqs {
				c, err := render(req)
				if err != nil {
					return err
				}
				w.warm = append(w.warm, c)
			}
		}
	}
	// The fresh pool interleaves scenarios, so any run of consecutive
	// fresh requests covers them evenly.
	for i := 0; i < freshSeeds; i++ {
		for _, sc := range planner.ScenarioNames() {
			c, err := render(server.WhatIfRequest{Scenario: sc, Seed: derive(cfg.seed, "fresh/"+sc, i)})
			if err != nil {
				return err
			}
			w.fresh = append(w.fresh, c)
		}
	}
	return ref.Drain(context.Background())
}

// setup boots the daemon and warms the six bases.
func (w *whatifPhase) setup(cfg config) error {
	w.close()
	w.srv = server.New(server.Config{Workers: cfg.nproc})
	w.hs = httptest.NewServer(w.srv.Handler())
	w.client = &server.Client{BaseURL: w.hs.URL, MaxRetries429: -1, HTTPClient: w.hs.Client()}
	seen := map[string]bool{}
	for _, c := range w.warm {
		key := fmt.Sprintf("%s/%d", c.req.Scenario, c.req.Seed)
		if seen[key] {
			continue
		}
		seen[key] = true
		req := c.req
		req.NoMemo = true
		if _, err := w.client.WhatIf(context.Background(), &req); err != nil {
			return fmt.Errorf("warm %s: %w", key, err)
		}
	}
	return nil
}

func (w *whatifPhase) close() {
	if w.srv == nil {
		return
	}
	w.hs.Close()
	_ = w.srv.Drain(context.Background()) // no requests are in flight
	w.srv, w.hs, w.client = nil, nil, nil
}

// burst is one step of the phase: nproc closed-loop callers for this
// long.
const burst = 2 * time.Second

// p99Chunk is how many consecutive completed requests one p99 sample
// covers: enough for ten beyond the p99.
const p99Chunk = 1000

// caller is one closed-loop client's request stream, kept across bursts.
type caller struct {
	rng         *rand.Rand
	id, n       int
	slot, fresh int
}

// step drives nproc closed-loop callers for one burst.
func (w *whatifPhase) step(cfg config, rep *report, tr *tracer) {
	if w.callers == nil {
		for i := 0; i < cfg.nproc; i++ {
			rng := rand.New(rand.NewSource(derive(cfg.seed, "caller", i)))
			// Exactly one request in every block of freshOneIn names a
			// fresh base, at a seeded offset, cycling through the pool.
			w.callers = append(w.callers, &caller{rng: rng, id: i, slot: rng.Intn(freshOneIn), fresh: i})
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(burst)
	for _, c := range w.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for ; time.Now().Before(deadline); c.n++ {
				var wc whatifCase
				if c.n%freshOneIn == c.slot {
					wc = w.fresh[c.fresh%len(w.fresh)]
					c.fresh += cfg.nproc
				} else {
					wc = w.warm[c.rng.Intn(len(w.warm))]
				}
				req := wc.req
				req.NoMemo = c.rng.Intn(8) < noMemoEighths
				traced := tr.sampled(c.n*cfg.nproc + c.id)
				if ms, ok := w.post(rep, traced, &req, wc.want); ok {
					rep.sample("whatif", ms, traced != nil)
					mu.Lock()
					w.lat = append(w.lat, ms)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	w.busy += time.Since(start)
	w.bursts++
}

func (w *whatifPhase) done() bool { return w.bursts >= 1 }

// finish records the phase's throughput and the p99 of every chunk of
// p99Chunk consecutive completions (of all completions when there are
// fewer). whatif_p99_ms is the median chunk p99: the tail of a typical
// stretch of the run, which a stall of the host during a minority of the
// run does not move.
func (w *whatifPhase) finish(rep *report) {
	rep.sample("whatif_req_s", float64(len(w.lat))/w.busy.Seconds(), false)
	for i := 0; i+p99Chunk <= len(w.lat); i += p99Chunk {
		rep.sample("whatif_p99_chunk", quantile(w.lat[i:i+p99Chunk], 0.99), false)
	}
	if len(w.lat) < p99Chunk {
		rep.sample("whatif_p99_chunk", quantile(w.lat, 0.99), false)
	}
}

// post sends one what-if and checks its verdict against the reference.
func (w *whatifPhase) post(rep *report, tr *tracer, req *server.WhatIfRequest, want []byte) (float64, bool) {
	sp := tr.request("server.whatif")
	t0 := time.Now()
	resp, err := w.client.WhatIf(context.Background(), req)
	ms := time.Since(t0).Seconds() * 1e3
	sp.end()
	if err == nil {
		if got := verdict(resp); !bytes.Equal(got, want) {
			err = fmt.Errorf("what-if %s/%d no_memo=%v: verdict %s, reference %s", req.Scenario, req.Seed, req.NoMemo, got, want)
		}
	}
	return ms, rep.op(err)
}

// serverMetrics reads the daemon's own counters into per-layer metrics.
func (w *whatifPhase) serverMetrics(rep *report) error {
	m, err := w.client.Metrics(context.Background())
	if err != nil {
		return err
	}
	for _, e := range m.Endpoints {
		if e.Endpoint == "whatif" {
			rep.setLayer("server.handler_p50_ms", "ms", e.P50Ms)
		}
	}
	rep.setLayer("server.memo_hit_ratio", "ratio", ratio(m.MemoHits, m.MemoHits+m.MemoMisses))
	rep.setLayer("server.cache_hit_ratio", "ratio", ratio(m.SnapshotCacheHits, m.SnapshotCacheHits+m.SnapshotCacheMisses))
	rep.setLayer("server.rejected", "count", float64(m.RejectedQueueFull+m.RejectedDraining))
	rep.setLayer("server.deadline_expired", "count", float64(m.DeadlineExpired))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
