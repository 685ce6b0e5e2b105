package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/num"
	"repro/internal/store"
)

// grmSpec is what differs between the GRM workloads.
type grmSpec struct {
	shards    int
	bulk      int     // bulk principals of the (poor) sharded GRM
	churnRate float64 // open loop: Share/Revoke arrivals per second per local LRM
	recover   bool    // time RecoverShards of the run's WAL after the window
	setups    int     // set-ups per untraced run; setup_s is their median

	// tree-borrow: a root and a rich leaf above the sharded poor leaf,
	// whose second LRM has no local capacity, so each of its requests
	// borrows through the federation.
	tree bool
}

// The rates and shapes every GRM workload shares.
const (
	lrmCapacity = 1000 // capacity of each local LRM principal
	lrmShare    = 0.3  // fraction each block principal shares with its LRM
	allocMin    = 0.5  // local allocation amounts are uniform in [allocMin, allocMax)
	allocMax    = 4.0
	allocRate   = 400.0 // open loop: Allocate arrivals per second per local LRM
	reportRate  = 5.0   // open loop: Report arrivals per second per LRM

	borrowRate = 300.0 // tree-borrow open loop: borrowing Allocate arrivals per second
	borrowMin  = 2.0   // borrowing amounts are uniform in [borrowMin, borrowMax)
	borrowMax  = 8.0
	richCap    = 10000.0 // the rich leaf's capacity
	richShare  = 0.4     // fraction of its aggregate the rich leaf shares with the poor one at the root
)

// borrowerName is tree-borrow's borrowing LRM, in a subtree of its own.
const borrowerName = "edge/borrower"

// churnShare is the fraction each churn Share gives from an LRM to a bulk
// principal of its shard.
const churnShare = 0.02

// client is one LRM connection of the benchmark.
type client struct {
	lrm      *grm.LRM
	name     string
	pid      int // global principal id
	shard    int
	capacity float64
	borrower bool
	read     atomic.Int64 // bytes read from the GRM
}

// rig is one set-up GRM deployment: the sharded GRM the LRMs talk to, its
// per-shard WALs, the LRM connections and, for tree-borrow, the root and
// the rich leaf.
type rig struct {
	spec   grmSpec
	g      *grm.Sharded
	pop    *population
	walDir string
	logs   []*store.FileLog
	tlogs  []*timedLog
	served chan error
	lrms   []*client

	root, rich *grm.Server
	rootServed chan error
	closed     bool
}

// buildRig sets a deployment up from seed: populate, serve on loopback,
// dial the LRMs, and warm every shard's planner plus one allocation per
// LRM requester so no lazy build lands in a measured window.
func buildRig(spec grmSpec, seed int64, tmp string, tr *tracer) (_ *rig, err error) {
	rng := rand.New(rand.NewSource(seed))
	r := &rig{spec: spec}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.walDir, err = os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	r.g = grm.NewSharded(spec.shards, core.Config{ComponentLP: true}, nil)
	logs := make([]store.Log, spec.shards)
	for i := range logs {
		fl, err := store.OpenFileLog(filepath.Join(r.walDir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		r.logs = append(r.logs, fl)
		logs[i] = fl
		if tr != nil {
			tl := &timedLog{Log: fl, tr: tr}
			r.tlogs = append(r.tlogs, tl)
			logs[i] = tl
		}
	}
	if err := r.g.SetLogs(logs); err != nil {
		return nil, err
	}
	if r.pop, err = populate(r.g, spec.bulk, rng); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.g.Serve(l) }()
	addr := l.Addr().String()

	// The local LRMs register inside populated subtrees on distinct
	// shards; each block principal of that subtree shares with its LRM.
	locals := 2
	if spec.tree {
		locals = 1
	}
	used := map[int]bool{}
	if spec.tree {
		used[r.g.ShardOf(borrowerName)] = true // keep the borrower's shard to itself
	}
	for i := 0; i < locals; i++ {
		blk := rng.Intn(len(r.pop.blocks))
		for used[r.pop.blocks[blk][0]%spec.shards] {
			blk = (blk + 1) % len(r.pop.blocks)
		}
		c, err := r.dial(addr, r.pop.subtrees[blk]+fmt.Sprintf("/lrm%d", i), lrmCapacity, false)
		if err != nil {
			return nil, err
		}
		if c.shard != r.pop.blocks[blk][0]%spec.shards {
			return nil, fmt.Errorf("LRM %s landed on shard %d, its subtree on %d", c.name, c.shard, r.pop.blocks[blk][0]%spec.shards)
		}
		used[c.shard] = true
		for _, p := range r.pop.blocks[blk] {
			if err := r.pop.share(r.g, p, c.pid, lrmShare, 0); err != nil {
				return nil, err
			}
		}
	}
	if spec.tree {
		if err := r.buildTree(addr); err != nil {
			return nil, err
		}
	}

	// Warm-up: one allocation per shard (builds its planner) and one per
	// LRM requester (builds its plan skeleton), each released at once.
	for s, sb := range r.pop.shards {
		if len(sb.bulk) == 0 {
			continue
		}
		resp, err := do(r.g, &grm.Request{Alloc: &grm.AllocRequest{Principal: sb.bulk[0], Amount: 0.1}})
		if err != nil {
			return nil, fmt.Errorf("warm shard %d: %w", s, err)
		}
		if _, err := do(r.g, &grm.Request{Release: &grm.ReleaseRequest{Lease: resp.Alloc.Lease}}); err != nil {
			return nil, fmt.Errorf("warm shard %d: %w", s, err)
		}
	}
	for _, c := range r.lrms {
		amount := allocMin
		if c.borrower {
			amount = borrowMin
		}
		reply, err := c.lrm.Allocate(amount)
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", c.name, err)
		}
		if err := c.lrm.Release(reply.Lease); err != nil {
			return nil, fmt.Errorf("warm %s: %w", c.name, err)
		}
	}
	return r, nil
}

// dial connects one LRM over the binary wire, counting the bytes it reads.
func (r *rig) dial(addr, name string, capacity float64, borrower bool) (*client, error) {
	c := &client{name: name, capacity: capacity, borrower: borrower}
	cfg := grm.DefaultDialConfig()
	cfg.Codec = grm.CodecBinary
	cfg.Timeout = 60 * time.Second
	cfg.RetryMax = 0
	cfg.Dialer = func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return countConn{Conn: conn, read: &c.read}, nil
	}
	lrm, err := grm.DialWithConfig(addr, name, capacity, cfg)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	c.lrm = lrm
	c.pid = lrm.Principal()
	c.shard = c.pid % r.spec.shards
	r.pop.noteRegister(c.pid, name, capacity)
	r.lrms = append(r.lrms, c)
	return c, nil
}

// buildTree adds the federation above the sharded GRM: a root, a rich
// leaf sharing part of its aggregate with the poor one at the root, and a
// borrowing LRM with no local capacity on the poor leaf.
func (r *rig) buildTree(poorAddr string) error {
	if _, err := r.dial(poorAddr, borrowerName, 0, true); err != nil {
		return err
	}
	r.root = grm.NewServer(core.Config{}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen root: %w", err)
	}
	r.rootServed = make(chan error, 1)
	go func() { r.rootServed <- r.root.Serve(l) }()
	rootAddr := l.Addr().String()

	r.rich = grm.NewServer(core.Config{}, nil)
	if _, err := do(r.rich, &grm.Request{Register: &grm.RegisterRequest{Name: "rich/node0", Capacity: richCap}}); err != nil {
		return fmt.Errorf("rich leaf: %w", err)
	}
	cfg := grm.DefaultDialConfig()
	cfg.Codec = grm.CodecBinary
	cfg.Timeout = 60 * time.Second
	if err := r.rich.AttachParentConfig(rootAddr, "leaf-rich", cfg); err != nil {
		return err
	}
	if err := r.g.AttachParentConfig(rootAddr, "leaf-poor", cfg); err != nil {
		return err
	}
	// The poor leaf offers nothing upstream, so every borrow it makes is
	// served by the rich leaf's agreement.
	if err := r.g.Parent().Report(0); err != nil {
		return fmt.Errorf("poor leaf report: %w", err)
	}
	if _, err := r.rich.Parent().ShareRelative(r.g.Parent().Principal(), richShare); err != nil {
		return fmt.Errorf("rich share at root: %w", err)
	}
	return nil
}

// close tears the deployment down and waits for every server goroutine.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, c := range r.lrms {
		c.lrm.Close()
	}
	if r.g != nil {
		r.g.Close()
		if r.served != nil {
			<-r.served
		}
	}
	if r.rich != nil {
		r.rich.DetachParent()
		r.rich.Close()
	}
	if r.root != nil {
		r.root.Close()
		<-r.rootServed
	}
	for _, l := range r.logs {
		l.Close()
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// checkTakes validates one Allocate reply: non-negative takes that sum to
// the request within the LP tolerance, drawn only from the requester's
// shard.
func checkTakes(reply *grm.AllocReply, amount float64, shard, nshards int) error {
	var sum float64
	for i, t := range reply.Takes {
		if t < -num.SolveTol {
			return fmt.Errorf("negative take %g from principal %d", t, i)
		}
		if t != 0 && i%nshards != shard {
			return fmt.Errorf("take %g from principal %d on shard %d, requester on shard %d", t, i, i%nshards, shard)
		}
		sum += t
	}
	if !num.EqSolve(sum, amount) {
		return fmt.Errorf("takes sum to %g, requested %g", sum, amount)
	}
	return nil
}

// books is the part of a GRM's Status the checks compare.
type books struct {
	avail      map[int]float64
	reported   map[int]float64
	capacity   map[int]float64
	leases     int
	agreements int
	borrowed   float64
	borrows    int
}

func booksOf(st *grm.Status) books {
	b := books{
		avail:      map[int]float64{},
		reported:   map[int]float64{},
		capacity:   map[int]float64{},
		leases:     st.Leases,
		agreements: st.Agreements,
		borrowed:   st.Federation.TotalBorrowed,
		borrows:    len(st.Federation.Borrows),
	}
	for _, p := range st.Principals {
		b.avail[p.Principal] = p.Available
		b.reported[p.Principal] = p.Reported
		b.capacity[p.Principal] = p.Capacity
	}
	return b
}

// sameAvail reports the first principal whose availability differs
// between two views beyond the relative tolerance.
func sameAvail(want, got books, withCaps bool) error {
	if len(want.avail) != len(got.avail) {
		return fmt.Errorf("%d principals, want %d", len(got.avail), len(want.avail))
	}
	for p, a := range want.avail {
		g, ok := got.avail[p]
		if !ok {
			return fmt.Errorf("principal %d missing", p)
		}
		if !num.Eq(a, g) {
			return fmt.Errorf("principal %d available %.17g, want %.17g", p, g, a)
		}
		if withCaps {
			if !num.Eq(want.reported[p], got.reported[p]) {
				return fmt.Errorf("principal %d reported %.17g, want %.17g", p, got.reported[p], want.reported[p])
			}
			if !num.Eq(want.capacity[p], got.capacity[p]) {
				return fmt.Errorf("principal %d capacity %.17g, want %.17g", p, got.capacity[p], want.capacity[p])
			}
		}
	}
	return nil
}

// status reads the merged status of the sharded GRM (outside any timed
// window: it computes every principal's capacity).
func (r *rig) status() (books, error) {
	st, err := r.g.Status()
	if err != nil {
		return books{}, fmt.Errorf("status: %w", err)
	}
	return booksOf(st), nil
}
