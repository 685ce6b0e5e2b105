package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/grm"
)

// counters is the part of the GRM's Status the per-layer metrics diff
// across a window.
type counters struct {
	batches, batched, planNanos int64
	conflicts                   uint64
}

func countersOf(st *grm.Status) counters {
	return counters{st.Batches, st.BatchedRequests, st.BatchPlanNanos, st.PlanConflicts}
}

func (c counters) plus(d counters) counters {
	return counters{c.batches + d.batches, c.batched + d.batched, c.planNanos + d.planNanos, c.conflicts + d.conflicts}
}

func (c counters) minus(d counters) counters {
	return counters{c.batches - d.batches, c.batched - d.batched, c.planNanos - d.planNanos, c.conflicts - d.conflicts}
}

// marks is everything window B's per-layer metrics difference: the leaf's
// and the root's Status counters, the WAL appends and bytes, and the bytes
// the LRMs read. It is read outside timed windows.
type marks struct {
	leaf, root              counters
	appends, walBytes, read int64
}

func (r *rig) marks() (marks, error) {
	var m marks
	st, err := r.g.Status()
	if err != nil {
		return m, err
	}
	m.leaf = countersOf(st)
	if r.root != nil {
		rst, err := r.root.Status()
		if err != nil {
			return m, fmt.Errorf("root status: %w", err)
		}
		m.root = countersOf(rst)
	}
	m.appends, m.walBytes = r.walCounts()
	for _, c := range r.lrms {
		m.read += c.read.Load()
	}
	return m, nil
}

func (m marks) plus(d marks) marks {
	return marks{m.leaf.plus(d.leaf), m.root.plus(d.root), m.appends + d.appends, m.walBytes + d.walBytes, m.read + d.read}
}

func (m marks) minus(d marks) marks {
	return marks{m.leaf.minus(d.leaf), m.root.minus(d.root), m.appends - d.appends, m.walBytes - d.walBytes, m.read - d.read}
}

// tracePairs is how many pairs of A and B sub-windows the traced run
// alternates, in the order AB BA AB BA, so that whatever drifts with run
// order (WAL growth, heap growth, warm-up) falls on A and B alike.
const tracePairs = 4

// traceGRM is the traced run of a GRM workload. Its windows:
//
//	A  the open-loop schedule with span recording off — the reference;
//	B  the same schedule with a span around every wire call and every
//	   WAL append, and the bytes each LRM reads counted;
//	C  the same schedule driven through the router's in-process Handle,
//	   one request at a time, so WAL appends nest under their request;
//
// A and B each get a third of the window, cut into tracePairs
// sub-windows that alternate (see tracePairs); each pair runs one
// schedule twice. C follows, then the core/transitive kernels on one
// shard's rebuilt graph and, for alloc-steady, recovery with the time
// inside Replay separated out.
func traceGRM(spec grmSpec, a args) (*report, *runStats, error) {
	rep, st := newReport(), &runStats{}
	tr := newTracer()
	r, err := setupGRM(spec, a, rep, tr)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	pre, err := r.snapshot()
	if err != nil {
		return nil, nil, err
	}
	window := a.window / 3

	outA, outB := &outcome{}, &outcome{}
	var moved marks // window B's total
	sub := window / tracePairs
	for p := 0; p < tracePairs; p++ {
		scheds := r.schedules(a.seed, int64(1+p), sub, false)
		order := []bool{false, true}
		if p%2 == 1 {
			order = []bool{true, false}
		}
		for _, traced := range order {
			if !traced {
				runOpen(r, scheds, outA, nil)
				continue
			}
			m0, err := r.marks()
			if err != nil {
				return nil, nil, err
			}
			tr.on.Store(true)
			runOpen(r, scheds, outB, tr)
			tr.on.Store(false)
			m1, err := r.marks()
			if err != nil {
				return nil, nil, err
			}
			moved = moved.plus(m1.minus(m0))
		}
	}

	tr.on.Store(true)
	if err := replayInProcess(r, r.schedules(a.seed, 1, window, false), tr, window); err != nil {
		return nil, nil, fmt.Errorf("in-process replay: %w", err)
	}
	tr.on.Store(false)

	for _, out := range []*outcome{outA, outB} {
		st.attempted += out.attempted.Load()
		st.failed += out.failed.Load()
	}
	merged := &outcome{}
	merged.shares.Store(outA.shares.Load() + outB.shares.Load())
	merged.revokes.Store(outA.revokes.Load() + outB.revokes.Load())
	post := r.checkSettled(pre, merged, st)
	for _, out := range []*outcome{outA, outB} {
		if n := out.bad.Load(); n > 0 {
			st.check(fmt.Errorf("%d Allocate replies failed the takes check: %v", n, out.firstErr))
		}
	}

	// Wire, generator and transport.
	allocsB := outB.lat[kAlloc].len() + outB.borrow.len()
	wireAlloc := tr.durations("wire.alloc")
	handleAlloc := tr.durations("grm.handle.alloc")
	rep.set("gen.late_p99_ms", quantile(outB.late.sorted(), 0.99), "ms", outB.late.len())
	rep.set("transport.alloc_reply_bytes", float64(moved.read)/float64(max(allocsB, 1)), "bytes", allocsB)
	rep.set("transport.wire_alloc_us", 1e3*(quantile(wireAlloc, 0.5)-quantile(handleAlloc, 0.5)), "us", len(wireAlloc))
	headA, headB := &outA.lat[kAlloc], &outB.lat[kAlloc]
	if spec.tree {
		headA, headB = &outA.borrow, &outB.borrow
	}
	rep.set("trace.overhead_us", 1e3*(quantile(headB.sorted(), 0.5)-quantile(headA.sorted(), 0.5)), "us", headB.len())

	// GRM service layer.
	for _, k := range []string{"alloc", "release", "share", "revoke"} {
		d := tr.durations("grm.handle." + k)
		rep.set("grm.handle_"+k+"_us_p50", 1e3*quantile(d, 0.5), "us", len(d))
		rep.set("grm.handle_"+k+"_us_p99", 1e3*quantile(d, 0.99), "us", len(d))
	}
	leaf := moved.leaf
	rep.set("grm.batch_mean", float64(leaf.batched)/float64(max(leaf.batches, 1)), "count", int(leaf.batches))
	rep.set("grm.plan_conflicts_per_kalloc", 1e3*float64(leaf.conflicts)/float64(max(allocsB, 1)), "count", allocsB)
	rep.set("grm.batch_busy_s", time.Duration(leaf.planNanos).Seconds(), "s", int(leaf.batches))
	self := tr.selfSeconds()
	var grmSelf float64
	for name, s := range self {
		if len(name) > 11 && name[:11] == "grm.handle." {
			grmSelf += s
		}
	}
	rep.set("grm.self_s", grmSelf, "s", 1)

	// Store.
	app := tr.durations("store.append")
	appendsB := moved.appends
	rep.set("store.append_us_p50", 1e3*quantile(app, 0.5), "us", len(app))
	rep.set("store.append_us_p99", 1e3*quantile(app, 0.99), "us", len(app))
	rep.set("store.appends_per_op", float64(appendsB)/float64(max(outB.attempted.Load(), 1)), "count", int(outB.attempted.Load()))
	rep.set("store.bytes_per_record", float64(moved.walBytes)/float64(max(appendsB, 1)), "bytes", int(appendsB))
	rep.set("store.self_s", self["store.append"], "s", len(app))

	// Federation.
	if spec.tree {
		rep.set("federation.borrow_frac", 1-float64(leaf.batched)/float64(max(allocsB, 1)), "ratio", allocsB)
		root := moved.root
		rep.set("federation.root_batch_us", float64(root.planNanos)/1e3/float64(max(root.batches, 1)), "us", int(root.batches))
	}

	// Core and transitive kernels on one shard's graph.
	tr.on.Store(true)
	err = coreLayers(r, rep, tr, rand.New(rand.NewSource(a.seed)))
	tr.on.Store(false)
	if err != nil {
		return nil, nil, err
	}

	if spec.recover && len(st.problems) == 0 {
		recoverS, replayS, err := r.recoverWAL(post.leaf, st)
		if err != nil {
			return nil, nil, fmt.Errorf("recover: %w", err)
		}
		rep.set("recover_s", recoverS, "s", 1)
		rep.set("store.replay_s", replayS, "s", 1)
	}
	rep.set("trace.spans", float64(tr.count()), "count", 1)
	if err := tr.write(spanPath(a)); err != nil {
		return nil, nil, err
	}
	return rep, st, nil
}

// walCounts sums the appends the timing wrappers counted and the bytes of
// every shard's WAL directory.
func (r *rig) walCounts() (appends, bytes int64) {
	for _, tl := range r.tlogs {
		appends += tl.appends.Load()
	}
	for i := range r.logs {
		files, _ := filepath.Glob(filepath.Join(r.walDir, fmt.Sprintf("shard%d", i), "*"))
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil {
				bytes += fi.Size()
			}
		}
	}
	return appends, bytes
}
