package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transitive"
)

// proxy-day is the paper's case study in the Figure 8 level-9
// configuration: 10 proxies, a complete agreement graph of 10% shares,
// full transitivity, one-hour skews, paper scale, 6 h warmup + 24 h.
const (
	dayProxies = 10
	dayShare   = 0.1
	dayLevel   = dayProxies - 1
	dayWarmup  = 6 * 3600
)

// seed1Summary is the Figure 8 level-9 line of figures_scale1.txt; seed 1
// must reproduce it.
const seed1Summary = "worst slot 1.60 s, mean 0.931 s, redirected 2.39%"

func dayConfig(seed int64, planner core.Planner) sim.Config {
	p := trace.BerkeleyLike()
	p.Seed = seed
	p, m := sim.ScaleWorkload(p, trace.PaperServiceModel(), 1)
	return sim.Config{
		NumProxies: dayProxies,
		Profile:    p,
		Service:    m,
		Skew:       sim.SkewVector(dayProxies, 3600),
		Horizon:    dayWarmup + trace.Day,
		Warmup:     dayWarmup,
		Threshold:  5,
		Planner:    planner,
	}
}

func daySummary(res *sim.Result) string {
	return fmt.Sprintf("worst slot %.2f s, mean %.3f s, redirected %.2f%%",
		res.WorstSlotWait(), res.Overall.Mean(), 100*res.RedirectedFraction())
}

// timedPlanner times every call the simulator makes into the planner — a
// consult of the global scheduler. With a recording tracer each call is
// also a span under parent. The simulator is single-goroutine.
type timedPlanner struct {
	p      core.Planner
	tr     *tracer
	parent int32
	plans  []float64 // milliseconds
	caps   []float64
}

func (t *timedPlanner) Plan(v []float64, requester int, amount float64) (*core.Allocation, error) {
	t0 := time.Now()
	a, err := t.p.Plan(v, requester, amount)
	d := time.Since(t0)
	t.plans = append(t.plans, float64(d)/1e6)
	t.tr.record("core.plan", t0, d, t.parent, int64(len(t.plans)))
	return a, err
}

func (t *timedPlanner) Capacities(v []float64) []float64 {
	t0 := time.Now()
	c := t.p.Capacities(v)
	d := time.Since(t0)
	t.caps = append(t.caps, float64(d)/1e6)
	t.tr.record("core.capacities", t0, d, t.parent, int64(len(t.plans)))
	return c
}

func (t *timedPlanner) plannerMs() float64 {
	var s float64
	for _, x := range t.plans {
		s += x
	}
	for _, x := range t.caps {
		s += x
	}
	return s
}

// daySetups is how many times proxy-day builds its planner (see
// repeatSetup).
const daySetups = 9

// setupDay builds the planner (agreement system, closure, allocator)
// daySetups times and records setup_s and heap_mb.
func setupDay(rep *report) (core.Planner, error) {
	var planner core.Planner
	setup, n, err := repeatSetup(daySetups, func() error {
		planner = nil
		var err error
		planner, err = sim.CompletePlanner(dayProxies, dayShare, core.Config{Level: dayLevel})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, "s", n)
	rep.set("heap_mb", heapMB(), "MB", 1)
	return planner, nil
}

// runDay simulates the day once through a timing wrapper.
func runDay(seed int64, planner core.Planner, tr *tracer) (*sim.Result, *timedPlanner, time.Duration, error) {
	root := tr.begin("sim.run", -1, seed)
	tp := &timedPlanner{p: planner, tr: tr, parent: root}
	t0 := time.Now()
	res, err := sim.Run(dayConfig(seed, tp))
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sim: %w", err)
	}
	return res, tp, d, nil
}

// runProxyDay repeats the simulated day until the window is spent; every
// repeat must give the same result, and seed 1 the published one.
func runProxyDay(a args) (*report, *runStats, error) {
	rep, st := newReport(), &runStats{}
	planner, err := setupDay(rep)
	if err != nil {
		return nil, nil, err
	}
	var plans, dayP50, rates []float64
	var first string
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < a.window {
		res, tp, d, err := runDay(a.seed, planner, nil)
		if err != nil {
			return nil, nil, err
		}
		st.attempted += int64(res.Requests)
		st.failed += int64(res.PlanFailures)
		plans = append(plans, tp.plans...)
		sort.Float64s(tp.plans)
		dayP50 = append(dayP50, quantile(tp.plans, 0.5))
		rates = append(rates, float64(res.Requests)/d.Seconds())
		s := daySummary(res)
		if first == "" {
			first = s
			fmt.Printf("proxy-day seed %d: %s, %d requests, %d consults\n", a.seed, s, res.Requests, res.Consults)
		} else if s != first {
			st.check(fmt.Errorf("repeat gave %q, first run %q", s, first))
		}
	}
	if a.seed == 1 && first != seed1Summary {
		st.check(fmt.Errorf("seed 1 gave %q, want %q", first, seed1Summary))
	}
	sort.Float64s(plans)
	rep.set("sim_req_per_s", calm(rates, false), "req/s", len(rates))
	rep.set("consult_p50_ms", quantile(plans, 0.5), "ms", len(plans))
	rep.set("consult_p99_ms", quantile(plans, 0.99), "ms", len(plans))
	rep.set("fail_frac", float64(st.failed)/float64(max(st.attempted, 1)), "ratio", int(st.attempted))
	rep.set("p50_ms", calm(dayP50, true), "ms", len(plans))
	rep.set("tput", rep.m["sim_req_per_s"].value, "1/s", len(rates))
	return rep, st, nil
}

// traceProxyDay runs the day untraced, traced, traced and untraced again
// (so drift with run order falls on both alike), with spans around every
// planner call in the traced days, then draws the ten request streams
// alone; all four days must agree exactly.
func traceProxyDay(a args) (*report, *runStats, error) {
	rep, st := newReport(), &runStats{}
	tr := newTracer()
	tr.on.Store(true)
	t0 := time.Now()
	planner, err := sim.CompletePlanner(dayProxies, dayShare, core.Config{Level: dayLevel})
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	tr.record("core.build", t0, time.Since(t0), -1, 0)
	tr.on.Store(false)

	var plain0, plans, caps []float64
	var res *sim.Result
	var plannerS, runS float64
	var first string
	for _, traced := range []bool{false, true, true, false} {
		var t *tracer
		if traced {
			t = tr
		}
		tr.on.Store(traced)
		day, tp, d, err := runDay(a.seed, planner, t)
		tr.on.Store(false)
		if err != nil {
			return nil, nil, err
		}
		if s := daySummary(day); first == "" {
			first = s
		} else if s != first {
			st.check(fmt.Errorf("traced %v day gave %q, first day %q", traced, s, first))
		}
		if !traced {
			plain0 = append(plain0, tp.plans...)
			continue
		}
		res = day
		plans = append(plans, tp.plans...)
		caps = append(caps, tp.caps...)
		plannerS += tp.plannerMs() / 1e3
		runS += d.Seconds()
	}
	if a.seed == 1 && first != seed1Summary {
		st.check(fmt.Errorf("seed 1 gave %q, want %q", first, seed1Summary))
	}
	st.attempted, st.failed = int64(res.Requests), int64(res.PlanFailures)

	gen := tr.begin("trace.gen", -1, a.seed)
	g0 := time.Now()
	cfg := dayConfig(a.seed, nil)
	drawn := 0
	for i := 0; i < dayProxies; i++ {
		s, err := trace.NewStream(cfg.Profile, cfg.Skew[i], cfg.Horizon)
		if err != nil {
			return nil, nil, err
		}
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			drawn++
		}
	}
	genS := time.Since(g0).Seconds()
	tr.end(gen)

	closure10, err := closure10Ms(tr)
	if err != nil {
		return nil, nil, err
	}
	sort.Float64s(plans)
	sort.Float64s(plain0)
	self := tr.selfSeconds()
	rep.set("core.build_ms", tr.durations("core.build")[0], "ms", 1)
	rep.set("core.plan_us_p50", 1e3*quantile(plans, 0.5), "us", len(plans))
	rep.set("core.plan_us_p99", 1e3*quantile(plans, 0.99), "us", len(plans))
	rep.set("core.capacities_us", 1e3*median(caps), "us", len(caps))
	rep.set("transitive.closure10_ms", closure10, "ms", 3)
	rep.set("sim.plan_calls", float64(len(plans)/2), "count", 1)
	rep.set("sim.plan_us", 1e6*plannerS/float64(max(len(plans), 1)), "us", len(plans))
	rep.set("sim.plan_frac", plannerS/runS, "ratio", 2)
	rep.set("sim.self_s", self["sim.run"]/2, "s", 2)
	rep.set("trace.gen_s", genS, "s", drawn)
	rep.set("trace.overhead_us", 1e3*(quantile(plans, 0.5)-quantile(plain0, 0.5)), "us", len(plans))
	rep.set("trace.spans", float64(tr.count()), "count", 1)
	if err := tr.write(spanPath(a)); err != nil {
		return nil, nil, err
	}
	return rep, st, nil
}

// closure10Ms times the exact closure of the complete 10-principal graph
// at full transitivity (median of three builds).
func closure10Ms(tr *tracer) (float64, error) {
	sys, _, err := agreement.BuildComplete(dayProxies, agreement.General, 1, dayShare)
	if err != nil {
		return 0, err
	}
	m, err := sys.Matrices(agreement.General)
	if err != nil {
		return 0, err
	}
	var ts []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		transitive.NewClosure(m.S, dayLevel, false)
		d := time.Since(t0)
		tr.record("transitive.closure10", t0, d, -1, int64(k))
		ts = append(ts, float64(d)/1e6)
	}
	return median(ts), nil
}

func spanPath(a args) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.csv", a.tmpdir, a.workload, a.seed)
}
