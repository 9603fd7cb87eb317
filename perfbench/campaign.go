package main

// The campaign phase: a durable daemon (server.Open on a store WAL with
// fsync=always, the centraliumd default) that a single operator drives,
// round by round on a fresh data directory: for every scenario, /v1/plan to
// completion, then /v1/execute of the winner under the default envelope;
// on fig10 and pod-drain also one execute under "churn=1", which drives
// the guard's retry → rollback → quarantine path. Each round ends with a
// drain, close and timed reopen of the data directory.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/server"
	"centralium/internal/store"
)

// churnScenarios abort deterministically under the churn=1 envelope.
var churnScenarios = map[string]bool{"fig10": true, "pod-drain": true}

// reopens is the number of timed recoveries per round.
const reopens = 8

// execRef is one clean execution under the default envelope and its
// terminal state as the guard reaches it in-process.
type execRef struct {
	req     server.ExecuteRequest
	state   guard.State
	finalFP string
}

// execRetries are the retry budgets of the clean executions of the
// winner posted per (scenario, seed). The budget is part of an
// execution's identity, so each is a fresh guarded run; a clean campaign
// never retries, so all of them do the same work.
var execRetries = []int{0, 1, 3, 4, 5, 6}

// daemon is one durable centraliumd instance and its data directory.
type daemon struct {
	dir    string
	st     *store.Store
	srv    *server.Server
	hs     *httptest.Server
	client *server.Client
}

func openDaemon(dir string, workers int) (*daemon, error) {
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	srv, err := server.Open(server.Config{Workers: workers, Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return &daemon{dir: dir, st: st, srv: srv, hs: hs,
		client: &server.Client{BaseURL: hs.URL, MaxRetries429: -1, HTTPClient: hs.Client()}}, nil
}

// shutdown drains the daemon and closes its store, as SIGTERM does.
func (d *daemon) shutdown() error {
	d.hs.Close()
	if err := d.srv.Drain(context.Background()); err != nil {
		return err
	}
	return d.st.Close()
}

// campaignRef is the serial in-process answer for one (scenario, seed).
type campaignRef struct {
	winner   string // planner winner, canonical text
	waves    string // its wave-only form, what /v1/execute accepts
	execs    []execRef
	stepMs   []float64
	evals    int
	memoHits int
}

// campaignCatalog is the number of seeds per scenario the campaign
// rounds draw from. The population is fixed and the workload seed picks
// the order, so a run long enough to cover the catalog plans the same
// set of searches whatever its seed: plan cost varies by ±20% between
// seeds, which would otherwise dominate the run-to-run spread.
const campaignCatalog = 8

type campaignPhase struct {
	// order is the seed-permuted catalog order; refs caches the serial
	// reference of every (scenario, seed) already planned this run.
	order []int
	refs  map[string]*campaignRef

	cur *daemon
	// round is the round in progress, next its next scenario; plans and
	// execs count what the round has journaled.
	round, next, plans, execs int
}

// setup opens a fresh data directory and boots the durable daemon.
func (c *campaignPhase) setup(cfg config) error {
	c.close()
	dir, err := os.MkdirTemp(cfg.work, "campaign-")
	if err != nil {
		return err
	}
	d, err := openDaemon(dir, cfg.nproc)
	if err != nil {
		return err
	}
	c.cur = d
	return nil
}

func (c *campaignPhase) close() {
	if c.cur == nil {
		return
	}
	_ = c.cur.shutdown() // abandoned set-up; its directory goes too
	os.RemoveAll(c.cur.dir)
	c.cur = nil
}

// step runs one unit of the phase: one scenario's plan and executes on
// the current daemon, or, once every scenario of the round has run,
// the round's shutdown and timed recoveries. A new round starts a fresh
// daemon on a fresh data directory, with the catalog's next seeds.
func (c *campaignPhase) step(cfg config, rep *report, tr *tracer, lp *layerProbe) error {
	if c.cur == nil {
		if err := c.setup(cfg); err != nil {
			return err
		}
	}
	tr = tr.sampled(c.round)
	if c.next < len(planner.ScenarioNames()) {
		sc := planner.ScenarioNames()[c.next]
		c.next++
		return c.scenario(cfg, rep, tr, lp, sc)
	}
	return c.finishRound(cfg, rep, tr, lp)
}

// done reports that at least one round is complete and none is open.
func (c *campaignPhase) done() bool { return c.round >= minRounds && c.next == 0 }

func (c *campaignPhase) scenario(cfg config, rep *report, tr *tracer, lp *layerProbe, sc string) error {
	d := c.cur
	ctx := context.Background()
	if c.order == nil {
		c.order = rand.New(rand.NewSource(cfg.seed)).Perm(campaignCatalog)
		c.refs = map[string]*campaignRef{}
	}
	seed := derive(0, "campaign/"+sc, c.order[c.round%campaignCatalog])
	key := fmt.Sprintf("%s/%d", sc, seed)
	ref := c.refs[key]
	if ref == nil {
		var err error
		if ref, err = campaignReference(sc, seed, lp); err != nil {
			return err
		}
		c.refs[key] = ref
	}

	sp := tr.request("server.plan")
	t0 := time.Now()
	plan, err := d.client.Plan(ctx, &server.PlanRequest{Scenario: sc, Seed: seed})
	ms := time.Since(t0).Seconds() * 1e3
	sp.end()
	c.plans++
	if err == nil {
		err = checkPlan(ref, plan)
	}
	if rep.op(err) {
		rep.sample("plan/"+sc, ms, tr != nil)
	}

	for _, x := range ref.execs {
		sp = tr.request("server.execute")
		t0 = time.Now()
		ex, err := d.client.Execute(ctx, &x.req)
		ms = time.Since(t0).Seconds() * 1e3
		sp.end()
		c.execs++
		if err == nil {
			err = checkExecute(x, ex)
		}
		if rep.op(err) {
			rep.sample("execute/"+sc, ms, tr != nil)
		}
	}

	if churnScenarios[sc] {
		sp = tr.request("server.execute_churn")
		t0 = time.Now()
		ex, err := d.client.Execute(ctx, &server.ExecuteRequest{Scenario: sc, Seed: seed, Schedule: ref.waves, Envelope: "churn=1"})
		ms = time.Since(t0).Seconds() * 1e3
		sp.end()
		c.execs++
		if err == nil && (ex.State != string(guard.StateAborted) || ex.Rollbacks == 0) {
			err = fmt.Errorf("execute %s/%d churn=1: %s with %d rollbacks, want aborted with rollbacks", sc, seed, ex.State, ex.Rollbacks)
		}
		if rep.op(err) {
			rep.sample("execute_churn", ms, tr != nil)
			rep.sample("guard.retries", float64(ex.Retries), false)
			rep.sample("guard.rollbacks", float64(ex.Rollbacks), false)
		}
	}
	return nil
}

func (c *campaignPhase) finishRound(cfg config, rep *report, tr *tracer, lp *layerProbe) error {
	d := c.cur
	ctx := context.Background()
	if lp != nil {
		m, err := d.client.Metrics(ctx)
		if err != nil {
			return err
		}
		rep.sample("store.appends_per_campaign", float64(m.StoreAppends)/float64(len(planner.ScenarioNames())), false)
	}
	if err := d.shutdown(); err != nil {
		return err
	}
	c.cur = nil
	if lp != nil {
		lp.storeReplay(rep, filepath.Join(d.dir, "wal"))
	}

	// Recovery: reopen the directory several times; each boot must
	// rebuild exactly what the round journaled.
	for k := 0; k < reopens; k++ {
		sp := tr.request("store.recover")
		t0 := time.Now()
		d2, err := openDaemon(d.dir, cfg.nproc)
		ms := time.Since(t0).Seconds() * 1e3
		sp.end()
		if err != nil {
			rep.op(err)
			continue
		}
		_, gotPlans, gotExecs, _, trunc := d2.srv.Recovered()
		if gotPlans != c.plans || gotExecs != c.execs || trunc != 0 {
			err = fmt.Errorf("recover %s: %d plans, %d execs, %d truncated bytes; journaled %d plans, %d execs",
				d.dir, gotPlans, gotExecs, trunc, c.plans, c.execs)
		}
		if rep.op(err) {
			rep.sample("recover", ms, tr != nil)
		}
		if err := d2.shutdown(); err != nil {
			return err
		}
	}
	c.round++
	c.next, c.plans, c.execs = 0, 0, 0
	return os.RemoveAll(d.dir)
}

// checkPlan: the daemon's plan must be done, with the reference winner.
func checkPlan(ref *campaignRef, plan *server.PlanResponse) error {
	if !plan.Done || plan.Winner != ref.winner {
		return fmt.Errorf("plan %s: done=%v winner %q, reference %q", plan.PlanID, plan.Done, plan.Winner, ref.winner)
	}
	return nil
}

// checkExecute: a clean execute must end where the in-process guard did.
func checkExecute(x execRef, ex *server.ExecuteResponse) error {
	if ex.State != string(x.state) || ex.FinalFingerprint != x.finalFP {
		return fmt.Errorf("execute %s/%d %q retries=%d: %s %s, reference %s %s",
			x.req.Scenario, x.req.Seed, x.req.Schedule, x.req.MaxRetries, ex.State, ex.FinalFingerprint, x.state, x.finalFP)
	}
	return nil
}

// checkChurn: a churn=1 execute must abort after rolling back.
func checkChurn(ex *server.ExecuteResponse) error {
	if ex.State != string(guard.StateAborted) || ex.Rollbacks == 0 {
		return fmt.Errorf("%s with %d rollbacks, want aborted with rollbacks", ex.State, ex.Rollbacks)
	}
	return nil
}

// campaignReference plans and executes (scenario, seed) serially
// in-process: the answer the daemon must reproduce. With a layer probe,
// the planner and guard calls are traced and the bare controller run of
// the same schedule is timed against the guard.
func campaignReference(sc string, seed int64, lp *layerProbe) (*campaignRef, error) {
	snap, p, err := planner.ScenarioSetup(sc, seed)
	if err != nil {
		return nil, err
	}
	p.Workers = 1
	search, err := planner.NewSearch(snap, p)
	if err != nil {
		return nil, err
	}
	ref := &campaignRef{}
	for done := false; !done; {
		sp := lp.span("planner.step")
		t0 := time.Now()
		done, err = search.Step()
		ref.stepMs = append(ref.stepMs, time.Since(t0).Seconds()*1e3)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("plan %s/%d: %w", sc, seed, err)
		}
	}
	res, err := search.Result()
	if err != nil {
		return nil, err
	}
	st := search.SearchStats()
	ref.evals, ref.memoHits = st.StepsEvaluated, st.MemoHits
	ref.winner = res.Winner.String()
	ref.waves = planner.FromWaves(res.Winner.Waves()).String()

	sched, err := planner.Parse(ref.waves)
	if err != nil {
		return nil, err
	}
	for _, retries := range execRetries {
		x := execRef{req: server.ExecuteRequest{Scenario: sc, Seed: seed, Schedule: ref.waves, MaxRetries: retries}}
		gc := guard.FromParams(p)
		gc.Name = "reference"
		gc.Retry.MaxRetries = retries
		gc.Schedule = sched
		sp := lp.span("guard.run")
		t0 := time.Now()
		gres, err := guard.Run(context.Background(), snap, gc)
		guardMs := time.Since(t0).Seconds() * 1e3
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("guard %s/%d: %w", sc, seed, err)
		}
		x.state = gres.State
		if x.finalFP, err = gres.Snapshot.Fingerprint(); err != nil {
			return nil, err
		}
		ref.execs = append(ref.execs, x)
		if lp != nil && retries == 0 {
			if err := lp.guardVsBare(sc, snap, p, sched.Waves(), guardMs); err != nil {
				return nil, err
			}
		}
	}
	if lp != nil {
		lp.planner(ref)
	}
	return ref, nil
}
