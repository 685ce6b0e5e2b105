package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grm"
)

type opKind uint8

const (
	kAlloc opKind = iota
	kReport
	kShare
	kRevoke
)

var kindNames = [...]string{kAlloc: "alloc", kReport: "report", kShare: "share", kRevoke: "revoke"}

// op is one generated request of an LRM's open-loop schedule.
type op struct {
	due    time.Duration // offset from the window start
	kind   opKind
	amount float64 // allocation amount, report value, or share fraction
	target int     // share: global principal to share with; revoke: index of the share op it cancels
}

// poisson appends arrivals of one kind at rate per second over window.
func poisson(ops []op, rng *rand.Rand, rate float64, window time.Duration, mk func(due time.Duration) op) []op {
	if rate <= 0 {
		return ops
	}
	t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	for t < window {
		ops = append(ops, mk(t))
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return ops
}

// schedule generates the open-loop requests over window of LRM lane of
// lanes: Poisson allocations, Poisson reports of its own capacity, and
// (churn) evenly spaced ops alternating Share and a Revoke of that share.
// churnOnly keeps only the churn ops.
func schedule(spec grmSpec, pop *population, c *client, lane, lanes int, rng *rand.Rand, window time.Duration, churnOnly bool) []op {
	var ops []op
	lo, hi, rate, reports := allocMin, allocMax, allocRate, reportRate
	if c.borrower {
		lo, hi, rate = borrowMin, borrowMax, borrowRate
	}
	if churnOnly {
		rate, reports = 0, 0
	}
	ops = poisson(ops, rng, rate, window, func(d time.Duration) op {
		return op{due: d, kind: kAlloc, amount: lo + rng.Float64()*(hi-lo)}
	})
	ops = poisson(ops, rng, reports, window, func(d time.Duration) op {
		return op{due: d, kind: kReport, amount: c.capacity}
	})
	if !c.borrower && spec.churnRate > 0 {
		// Churn ops are evenly spaced, so every window of a given length
		// holds the same number of Revokes (and planner rebuilds). The
		// lanes' Revokes interleave evenly: one every 2*gap/lanes in all.
		bulk := pop.shards[c.shard].bulk
		gap := time.Duration(float64(time.Second) / spec.churnRate)
		for i, d := 0, gap/2+time.Duration(lane)*2*gap/time.Duration(lanes); d < window; i, d = i+1, d+gap {
			if i%2 == 1 {
				ops = append(ops, op{due: d, kind: kRevoke})
			} else {
				ops = append(ops, op{due: d, kind: kShare, amount: churnShare, target: bulk[rng.Intn(len(bulk))]})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	// Bind each Revoke to the oldest share not yet revoked, in due order.
	var live []int
	for i := range ops {
		switch ops[i].kind {
		case kShare:
			live = append(live, i)
		case kRevoke:
			ops[i].target = live[0]
			live = live[1:]
		}
	}
	return ops
}

// outcome collects what one measured phase observed.
type outcome struct {
	lat     [4]samples // per op kind, local requests, timed from their due time (reports are not timed)
	borrow  samples    // borrowing allocations (tree-borrow), from due time
	release samples
	late    samples // how late the generator issued each request

	// base is the open-loop time of earlier rounds, added to each
	// request's due offset so slices span all rounds.
	base time.Duration

	attempted atomic.Int64
	failed    atomic.Int64
	bad       atomic.Int64 // replies that failed a correctness check
	shares    atomic.Int64
	revokes   atomic.Int64

	mu       sync.Mutex
	firstErr error
}

func (o *outcome) fail(err error) {
	o.failed.Add(1)
	o.note(err)
}

func (o *outcome) note(err error) {
	o.mu.Lock()
	if o.firstErr == nil {
		o.firstErr = err
	}
	o.mu.Unlock()
}

func (o *outcome) wrong(err error) {
	o.bad.Add(1)
	o.note(err)
}

// tickets holds the results of one schedule's share ops, so a Revoke can
// find the ticket of the share it cancels.
type tickets struct {
	done   []chan struct{}
	ticket []int
	ok     []bool
}

func newTickets(ops []op) *tickets {
	t := &tickets{done: make([]chan struct{}, len(ops)), ticket: make([]int, len(ops)), ok: make([]bool, len(ops))}
	for i, o := range ops {
		if o.kind == kShare {
			t.done[i] = make(chan struct{})
		}
	}
	return t
}

// runOpen drives every LRM's schedule open loop from start: each request
// is sent at its due time regardless of earlier replies, and its latency
// counts from that due time.
func runOpen(r *rig, scheds [][]op, out *outcome, tr *tracer) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for ci, c := range r.lrms {
		ops := scheds[ci]
		tk := newTickets(ops)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			// One goroutine per request: the open loop must not wait for
			// replies. The schedule bounds their number.
			for i := range ops {
				due := start.Add(ops[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					execOp(r, c, ops, i, due, tk, out, tr)
				}(i)
			}
		}(c)
	}
	wg.Wait()
}

// execOp sends one scheduled request over the LRM's connection.
func execOp(r *rig, c *client, ops []op, i int, due time.Time, tk *tickets, out *outcome, tr *tracer) {
	o := ops[i]
	out.late.add(time.Since(due))
	out.attempted.Add(1)
	req := int64(c.pid)<<32 | int64(i)
	id := tr.begin("wire."+kindNames[o.kind], -1, req)
	switch o.kind {
	case kAlloc:
		reply, err := c.lrm.Allocate(o.amount)
		tr.end(id)
		if err != nil {
			out.fail(fmt.Errorf("%s allocate %g: %w", c.name, o.amount, err))
			return
		}
		if c.borrower {
			out.borrow.addAt(out.base+o.due, time.Since(due))
		} else {
			out.lat[kAlloc].addAt(out.base+o.due, time.Since(due))
		}
		if err := checkTakes(reply, o.amount, c.shard, r.spec.shards); err != nil {
			out.wrong(fmt.Errorf("%s allocate %g: %w", c.name, o.amount, err))
		}
		rs := time.Now()
		id := tr.begin("wire.release", -1, req)
		err = c.lrm.Release(reply.Lease)
		tr.end(id)
		if err != nil {
			out.fail(fmt.Errorf("%s release: %w", c.name, err))
			return
		}
		out.release.add(time.Since(rs))
	case kReport:
		err := c.lrm.Report(o.amount)
		tr.end(id)
		if err != nil {
			out.fail(fmt.Errorf("%s report: %w", c.name, err))
		}
	case kShare:
		t, err := c.lrm.ShareRelative(o.target, o.amount)
		tr.end(id)
		tk.ticket[i], tk.ok[i] = t, err == nil
		close(tk.done[i])
		if err != nil {
			out.fail(fmt.Errorf("%s share: %w", c.name, err))
			return
		}
		out.shares.Add(1)
		out.lat[kShare].add(time.Since(due))
	case kRevoke:
		<-tk.done[o.target]
		if !tk.ok[o.target] {
			tr.end(id)
			out.fail(fmt.Errorf("%s revoke: its share failed", c.name))
			return
		}
		err := c.lrm.Revoke(tk.ticket[o.target])
		tr.end(id)
		if err != nil {
			out.fail(fmt.Errorf("%s revoke: %w", c.name, err))
			return
		}
		out.revokes.Add(1)
		out.lat[kRevoke].add(time.Since(due))
	}
}

// closedResult is what the closed phases measured: every allocation's
// latency, and each phase's allocations completed per slice.
type closedResult struct {
	lat   samples
	plan  closedPlan
	rates []float64 // per measured slice, allocations per second
}

// tput is calm over every measured slice of the phases of the slice's
// completed allocations per second (a refused one is not counted).
func (c *closedResult) tput() float64 { return calm(c.rates, false) }

// runClosed runs one closed phase of res.plan's length, keeping one
// allocate→release cycle in flight per LRM. A workload with churn runs its
// Share/Revoke stream open loop beside them at the same rate as in the
// open-loop window. salt keeps the phases' inputs apart.
func runClosed(r *rig, seed, salt int64, res *closedResult, out *outcome) {
	p := res.plan
	var phase samples
	var wg sync.WaitGroup
	if r.spec.churnRate > 0 {
		scheds := r.schedules(seed, salt, p.length(), true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOpen(r, scheds, out, nil)
		}()
	}
	start := time.Now()
	deadline := start.Add(p.length())
	for ci, c := range r.lrms {
		lo, hi := allocMin, allocMax
		if c.borrower {
			lo, hi = borrowMin, borrowMax
		}
		rng := rand.New(rand.NewSource(seed*7919 + salt*131 + int64(ci)))
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				out.attempted.Add(1)
				amount := lo + rng.Float64()*(hi-lo)
				t0 := time.Now()
				reply, err := c.lrm.Allocate(amount)
				d := time.Since(t0)
				if err != nil {
					out.fail(fmt.Errorf("%s allocate %g: %w", c.name, amount, err))
					continue
				}
				phase.addAt(time.Since(start), d)
				res.lat.add(d)
				if err := checkTakes(reply, amount, c.shard, r.spec.shards); err != nil {
					out.wrong(fmt.Errorf("%s allocate %g: %w", c.name, amount, err))
				}
				if err := c.lrm.Release(reply.Lease); err != nil {
					out.fail(fmt.Errorf("%s release: %w", c.name, err))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, xs := range phase.slices(p.warm, p.k, time.Duration(p.k)*p.slice) {
		res.rates = append(res.rates, float64(len(xs))/p.slice.Seconds())
	}
}

// replayInProcess drives the generated schedules, merged in due order,
// through the router's in-process Handle one request at a time, with a
// span per call; WAL appends made inside a call become its children. It
// stops after budget.
func replayInProcess(r *rig, scheds [][]op, tr *tracer, budget time.Duration) error {
	type item struct {
		c *client
		o op
		i int
	}
	var items []item
	for ci, ops := range scheds {
		for i, o := range ops {
			items = append(items, item{r.lrms[ci], o, i})
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].o.due < items[b].o.due })
	tickets := map[[2]int]int{}
	deadline := time.Now().Add(budget)
	call := func(name string, req *grm.Request, id int64) (*grm.Response, error) {
		sid := tr.begin(name, -1, id)
		tr.cur.Store(sid)
		resp := r.g.Handle(req)
		tr.cur.Store(-1)
		tr.end(sid)
		if resp.Err != "" {
			return nil, fmt.Errorf("%s: %s", name, resp.Err)
		}
		return resp, nil
	}
	for _, it := range items {
		if time.Now().After(deadline) {
			break
		}
		id := int64(it.c.pid)<<32 | int64(it.i)
		switch it.o.kind {
		case kAlloc:
			name := "grm.handle.alloc"
			if it.c.borrower {
				name = "grm.handle.borrow"
			}
			resp, err := call(name, &grm.Request{Alloc: &grm.AllocRequest{Principal: it.c.pid, Amount: it.o.amount}}, id)
			if err != nil {
				return err
			}
			if err := checkTakes(resp.Alloc, it.o.amount, it.c.shard, r.spec.shards); err != nil {
				return err
			}
			if _, err := call("grm.handle.release", &grm.Request{Release: &grm.ReleaseRequest{Lease: resp.Alloc.Lease}}, id); err != nil {
				return err
			}
		case kReport:
			if _, err := call("grm.handle.report", &grm.Request{Report: &grm.ReportRequest{Principal: it.c.pid, Available: it.o.amount}}, id); err != nil {
				return err
			}
		case kShare:
			resp, err := call("grm.handle.share", &grm.Request{Share: &grm.ShareRequest{From: it.c.pid, To: it.o.target, Fraction: it.o.amount}}, id)
			if err != nil {
				return err
			}
			tickets[[2]int{it.c.pid, it.i}] = resp.Share.Ticket
		case kRevoke:
			t, ok := tickets[[2]int{it.c.pid, it.o.target}]
			if !ok {
				continue // its share fell outside the replay budget
			}
			if _, err := call("grm.handle.revoke", &grm.Request{Revoke: &grm.RevokeRequest{Ticket: t}}, id); err != nil {
				return err
			}
			delete(tickets, [2]int{it.c.pid, it.o.target})
		}
	}
	// Revoke what the budget left live, so the agreement count returns to
	// its value before the replay.
	for _, t := range tickets {
		if _, err := call("grm.handle.revoke", &grm.Request{Revoke: &grm.RevokeRequest{Ticket: t}}, -1); err != nil {
			return err
		}
	}
	return nil
}
