package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/transitive"
)

// kernelRepeats is how many times each kernel is timed; the median is
// reported.
const kernelRepeats = 3

// timeKernel runs fn repeats times under spans named name and returns the
// median duration in milliseconds.
func timeKernel(tr *tracer, name string, repeats int, fn func(k int) error) (float64, error) {
	var ts []float64
	for k := 0; k < repeats; k++ {
		t0 := time.Now()
		if err := fn(k); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		tr.record(name, t0, d, -1, int64(k))
		ts = append(ts, float64(d)/1e6)
	}
	return median(ts), nil
}

// coreLayers rebuilds the first LRM's shard graph from the benchmark's own
// inputs and times the core and transitive kernels the GRM runs on it:
// the planner build a Revoke defers to the next allocation, Plan and
// Capacities for the LRM, the incremental SetShare a Share applies, and
// the closure build and edge update beneath them.
func coreLayers(r *rig, rep *report, tr *tracer, rng *rand.Rand) error {
	c := r.lrms[0]
	sb := &r.pop.shards[c.shard]
	sys, err := sb.system()
	if err != nil {
		return err
	}
	m, err := sys.SparseMatrices(agreement.General)
	if err != nil {
		return err
	}
	cfg := core.Config{ComponentLP: true}
	var al *core.Allocator
	buildMs, err := timeKernel(tr, "core.build", kernelRepeats, func(int) error {
		al = nil
		var err error
		al, err = core.NewAllocatorSparse(m.S, m.A, cfg)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.build_ms", buildMs, "ms", kernelRepeats)

	al = nil
	base := heapMB()
	al, err = core.NewAllocatorSparse(m.S, m.A, cfg)
	if err != nil {
		return err
	}
	rep.set("core.heap_mb_per_shard", heapMB()-base, "MB", 1)

	req := c.pid / r.spec.shards
	v := append([]float64(nil), sb.caps...)
	if _, err := al.Plan(v, req, allocMin); err != nil { // builds the skeleton
		return fmt.Errorf("core.plan: %w", err)
	}
	const plans = 2000
	var planMs []float64
	for k := 0; k < plans; k++ {
		amount := allocMin + rng.Float64()*(allocMax-allocMin)
		t0 := time.Now()
		if _, err := al.Plan(v, req, amount); err != nil {
			return fmt.Errorf("core.plan: %w", err)
		}
		d := time.Since(t0)
		tr.record("core.plan", t0, d, -1, int64(k))
		planMs = append(planMs, float64(d)/1e6)
	}
	sort.Float64s(planMs)
	rep.set("core.plan_us_p50", 1e3*quantile(planMs, 0.5), "us", plans)
	rep.set("core.plan_us_p99", 1e3*quantile(planMs, 0.99), "us", plans)

	capsMs, err := timeKernel(tr, "core.capacities", 9, func(int) error {
		al.Capacities(v)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("core.capacities_us", 1e3*capsMs, "us", 9)

	// Each SetShare and UpdateEdge starts from the same base and adds a
	// churn-sized share from the LRM to a random bulk principal.
	targets := make([]int, 21)
	for i := range targets {
		targets[i] = sb.bulk[rng.Intn(len(sb.bulk))] / r.spec.shards
	}
	setMs, err := timeKernel(tr, "core.setshare", len(targets), func(k int) error {
		old := al.Share(req, targets[k])
		_, err := al.SetShare(req, targets[k], old, old+churnShare)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.setshare_us", 1e3*setMs, "us", len(targets))

	n := m.S.N()
	cols := make([][]int32, n)
	vals := make([][]float64, n)
	for i := 0; i < n; i++ {
		cols[i], vals[i] = m.S.Row(i)
	}
	var clo *transitive.Closure
	cloMs, err := timeKernel(tr, "transitive.closure", kernelRepeats, func(int) error {
		clo = transitive.NewClosureCSR(n, cols, vals, n, false)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("transitive.closure_ms", cloMs, "ms", kernelRepeats)
	updMs, err := timeKernel(tr, "transitive.update_edge", len(targets), func(k int) error {
		old := clo.Edge(req, targets[k])
		_, _, err := clo.UpdateEdge(req, targets[k], old, old+churnShare)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("transitive.update_edge_us", 1e3*updMs, "us", len(targets))

	closure10, err := closure10Ms(tr)
	if err != nil {
		return err
	}
	rep.set("transitive.closure10_ms", closure10, "ms", kernelRepeats)
	runtime.KeepAlive(al)
	return nil
}
