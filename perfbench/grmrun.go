package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/store"
)

// repeatSetup runs build n times and returns the median time of one
// build. Each workload fixes its n, so a faster set-up does not change how
// many samples the median is over: 3 where one set-up takes seconds, 9
// where it takes a fraction of a second, so setup_s is the median of a
// few seconds of set-up either way.
func repeatSetup(n int, build func() error) (float64, int, error) {
	var times []float64
	for len(times) < n {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), len(times), nil
}

// The window runs in rounds, each an open-loop stretch followed by a
// closed phase, so both kinds of measurement are spread over the whole
// window: the host's slow spells, which last seconds, then fall on both
// alike and on fewer of each kind's slices. The gated open-loop median is
// taken over openSlices equal slices of the open-loop time (see calm). Each
// closed phase has closedShare of its round, rounded down to whole
// closedSlice slices, after a closedWarmup that is not measured: the first
// moments after an open-loop stretch ran slow. With churn, the two LRMs'
// Revokes come one every closedSlice in turn (see schedule), each in the
// middle of a slice, so every measured slice holds one planner rebuild.
const (
	rounds       = 3
	openSlices   = 12
	closedShare  = 0.4
	closedSlice  = 500 * time.Millisecond
	closedWarmup = 500 * time.Millisecond
)

// closedPlan is one closed phase's shape: a warm-up, then k measured
// slices.
type closedPlan struct {
	warm  time.Duration
	k     int
	slice time.Duration
}

func (p closedPlan) length() time.Duration { return p.warm + time.Duration(p.k)*p.slice }

// splitRound divides one round of the window into the open loop's length
// and the closed phase. A round too short for one whole slice (the smoke
// test) gets one slice of three quarters of the closed share after a
// warm-up of a quarter.
func splitRound(window time.Duration) (time.Duration, closedPlan) {
	round := window / rounds
	closed := time.Duration(closedShare * float64(round))
	p := closedPlan{warm: closedWarmup, k: int(closed / closedSlice), slice: closedSlice}
	if p.k == 0 {
		p = closedPlan{warm: closed / 4, k: 1, slice: closed - closed/4}
	}
	return round - p.length(), p
}

// runStats is what every workload hands back besides its metrics.
type runStats struct {
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
}

func (s *runStats) check(err error) {
	if err != nil {
		s.problems = append(s.problems, err.Error())
	}
}

// heapMB is the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupGRM builds the deployment spec.setups times (once for a traced
// run), tearing all but the last down again, and records setup_s and
// heap_mb. The last deployment is the one measured.
func setupGRM(spec grmSpec, a args, rep *report, tr *tracer) (*rig, error) {
	var r *rig
	n := spec.setups
	if tr != nil {
		n = 1
	}
	setup, n, err := repeatSetup(n, func() error {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		var err error
		r, err = buildRig(spec, a.seed, a.tmpdir, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, "s", n)
	rep.set("heap_mb", heapMB(), "MB", 1)
	return r, nil
}

// snapshot is every GRM level's books, read outside timed windows.
type snapshot struct {
	leaf       books
	root, rich *grm.Status
}

func (r *rig) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.leaf, err = r.status(); err != nil {
		return s, err
	}
	if r.root != nil {
		if s.root, err = r.root.Status(); err != nil {
			return s, fmt.Errorf("root status: %w", err)
		}
		if s.rich, err = r.rich.Status(); err != nil {
			return s, fmt.Errorf("rich status: %w", err)
		}
	}
	return s, nil
}

// checkSettled verifies the books after every lease was released:
// availability back at its pre-window value on every shard, no leases,
// the agreement count moved by exactly the shares minus revokes issued,
// and no borrow outstanding or unresolved at any level.
func (r *rig) checkSettled(pre snapshot, out *outcome, st *runStats) snapshot {
	post, err := r.snapshot()
	if err != nil {
		st.check(err)
		return post
	}
	if err := sameAvail(pre.leaf, post.leaf, false); err != nil {
		st.check(fmt.Errorf("availability after the window: %w", err))
	}
	if post.leaf.leases != 0 {
		st.check(fmt.Errorf("%d leases outstanding after the window", post.leaf.leases))
	}
	if want := pre.leaf.agreements + int(out.shares.Load()-out.revokes.Load()); post.leaf.agreements != want {
		st.check(fmt.Errorf("%d live agreements, want %d (%d before, %d shares, %d revokes)",
			post.leaf.agreements, want, pre.leaf.agreements, out.shares.Load(), out.revokes.Load()))
	}
	if post.leaf.borrowed != 0 || post.leaf.borrows != 0 {
		st.check(fmt.Errorf("leaf still owes %g in %d borrows", post.leaf.borrowed, post.leaf.borrows))
	}
	for name, s := range map[string]*grm.Status{"root": post.root, "rich leaf": post.rich} {
		if s == nil {
			continue
		}
		if s.Leases != 0 {
			st.check(fmt.Errorf("%s has %d leases outstanding", name, s.Leases))
		}
		for _, b := range s.Federation.Borrows {
			st.check(fmt.Errorf("%s borrow %d outstanding (unresolved %v)", name, b.ParentLease, b.Unresolved))
		}
	}
	if post.root != nil {
		if err := sameAvail(booksOf(pre.root), booksOf(post.root), false); err != nil {
			st.check(fmt.Errorf("root availability after the window: %w", err))
		}
	}
	return post
}

// recoverWAL shuts the deployment down and recovers a fresh sharded GRM
// from every shard's WAL; the recovered books must equal the pre-shutdown
// ones. It returns the RecoverShards time and the time spent inside the
// logs' Replay. The GRM's Close syncs each WAL and leaves it open, and
// Replay reads the WAL file back from disk, so the open logs are handed
// on. Closing and reopening them would add OpenFileLog's torn-tail scan,
// which only a crash needs and which is not timed: it took about 15 s per
// run at 8 × 2,000 principals.
func (r *rig) recoverWAL(want books, st *runStats) (recoverS, replayS float64, err error) {
	for _, c := range r.lrms {
		c.lrm.Close()
	}
	r.lrms = nil
	r.g.Close()
	<-r.served
	r.served = nil
	logs := make([]store.Log, r.spec.shards)
	tlogs := make([]*timedLog, r.spec.shards)
	for i, fl := range r.logs {
		tlogs[i] = &timedLog{Log: fl}
		logs[i] = tlogs[i]
	}
	r.g = grm.NewSharded(r.spec.shards, core.Config{ComponentLP: true}, nil)
	t0 := time.Now()
	if err := r.g.RecoverShards(logs); err != nil {
		return 0, 0, err
	}
	recoverS = time.Since(t0).Seconds()
	for _, tl := range tlogs {
		replayS += time.Duration(tl.replay.Load()).Seconds()
	}
	got, err := r.status()
	if err != nil {
		return 0, 0, err
	}
	if err := sameAvail(want, got, true); err != nil {
		st.check(fmt.Errorf("recovered books: %w", err))
	}
	if got.leases != want.leases || got.agreements != want.agreements {
		st.check(fmt.Errorf("recovered %d leases and %d agreements, want %d and %d", got.leases, got.agreements, want.leases, want.agreements))
	}
	return recoverS, replayS, nil
}

// schedules generates every LRM's open-loop schedule for one window; the
// same seed and salt give the same schedules.
func (r *rig) schedules(seed, salt int64, window time.Duration, churnOnly bool) [][]op {
	out := make([][]op, len(r.lrms))
	for i, c := range r.lrms {
		rng := rand.New(rand.NewSource(seed*1_000_003 + salt*101 + int64(i)))
		out[i] = schedule(r.spec, r.pop, c, i, len(r.lrms), rng, window, churnOnly)
	}
	return out
}

// runGRM runs one GRM workload untraced: set-up, the rounds of open loop
// and closed phase, the settlement checks and (alloc-steady) recovery.
func runGRM(spec grmSpec, a args) (*report, *runStats, error) {
	rep, st := newReport(), &runStats{}
	r, err := setupGRM(spec, a, rep, nil)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	pre, err := r.snapshot()
	if err != nil {
		return nil, nil, err
	}

	openDur, plan := splitRound(a.window)
	out := &outcome{}
	closed := &closedResult{plan: plan}
	for i := int64(0); i < rounds; i++ {
		out.base = time.Duration(i) * openDur
		runOpen(r, r.schedules(a.seed, 1+2*i, openDur, false), out, nil)
		runClosed(r, a.seed, 2+2*i, closed, out)
	}

	post := r.checkSettled(pre, out, st)
	st.attempted, st.failed = out.attempted.Load(), out.failed.Load()
	if n := out.bad.Load(); n > 0 {
		st.check(fmt.Errorf("%d Allocate replies failed the takes check: %v", n, out.firstErr))
	}

	rep.latency("alloc", &out.lat[kAlloc])
	rep.latency("release", &out.release)
	if spec.churnRate > 0 {
		rep.latency("share", &out.lat[kShare])
		rep.latency("revoke", &out.lat[kRevoke])
	}
	if spec.tree {
		rep.latency("borrow", &out.borrow)
	}
	rep.set("alloc_tput", closed.tput(), "allocs/s", closed.lat.len())
	cl := closed.lat.sorted()
	rep.set("closed_alloc_p99_ms", quantile(cl, 0.99), "ms", len(cl))
	rep.set("gen_late_p99_ms", quantile(out.late.sorted(), 0.99), "ms", out.late.len())
	rep.set("fail_frac", float64(st.failed)/float64(max(st.attempted, 1)), "ratio", int(st.attempted))
	if spec.recover && len(st.problems) == 0 {
		recoverS, _, err := r.recoverWAL(post.leaf, st)
		if err != nil {
			return nil, nil, fmt.Errorf("recover: %w", err)
		}
		rep.set("recover_s", recoverS, "s", 1)
	}

	head := &out.lat[kAlloc]
	if spec.tree {
		head = &out.borrow
	}
	p50, empty := calmSliceMedian(head, openSlices, rounds*openDur)
	if empty > 0 {
		st.check(fmt.Errorf("%d of %d open-loop slices had no successful request", empty, openSlices))
	}
	rep.set("p50_ms", p50, "ms", head.len())
	rep.set("tput", rep.m["alloc_tput"].value, "1/s", rep.m["alloc_tput"].n)
	if st.failed > 0 {
		fmt.Fprintf(os.Stderr, "first failure: %v\n", out.firstErr)
	}
	return rep, st, nil
}
