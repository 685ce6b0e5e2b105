package grm

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestShardIDCodecs pins the stateless identifier interleavings: every
// (shard, local) pair round-trips, and distinct pairs map to distinct
// globals.
func TestShardIDCodecs(t *testing.T) {
	for _, nshards := range []int{1, 2, 3, 4, 7} {
		g := NewSharded(nshards, core.Config{}, nil)
		defer g.Close()
		seenP := map[int]bool{}
		seenL := map[int]bool{}
		seenT := map[int]bool{}
		for shard := 0; shard < nshards; shard++ {
			for local := 0; local < 5; local++ {
				gp := g.globalPrincipal(shard, local)
				if s, l := g.splitPrincipal(gp); s != shard || l != local {
					t.Fatalf("n=%d principal (%d,%d) -> %d -> (%d,%d)", nshards, shard, local, gp, s, l)
				}
				if seenP[gp] {
					t.Fatalf("n=%d principal global %d collides", nshards, gp)
				}
				seenP[gp] = true

				gt := g.globalTicket(shard, local)
				if s, l := g.splitTicket(gt); s != shard || l != local {
					t.Fatalf("n=%d ticket (%d,%d) -> %d -> (%d,%d)", nshards, shard, local, gt, s, l)
				}
				if seenT[gt] {
					t.Fatalf("n=%d ticket global %d collides", nshards, gt)
				}
				seenT[gt] = true

				// Lease tokens start at 1 on each shard.
				lease := local + 1
				gl := g.globalLease(shard, lease)
				if gl < 1 {
					t.Fatalf("n=%d lease global %d not positive", nshards, gl)
				}
				if s, l := g.splitLease(gl); s != shard || l != lease {
					t.Fatalf("n=%d lease (%d,%d) -> %d -> (%d,%d)", nshards, shard, lease, gl, s, l)
				}
				if seenL[gl] {
					t.Fatalf("n=%d lease global %d collides", nshards, gl)
				}
				seenL[gl] = true
			}
		}
	}
}

// subtreeNames finds, for each shard, a subtree prefix that the name
// router maps there, so tests can place principals deterministically.
func subtreeNames(t *testing.T, g *Sharded) []string {
	t.Helper()
	names := make([]string, g.NumShards())
	found := 0
	for i := 0; found < g.NumShards() && i < 10_000; i++ {
		name := fmt.Sprintf("t%d", i)
		shard := g.shardOfName(name + "/probe")
		if names[shard] == "" {
			names[shard] = name
			found++
		}
	}
	if found < g.NumShards() {
		t.Fatalf("no subtree prefix found for every one of %d shards", g.NumShards())
	}
	return names
}

func mustHandle(t *testing.T, g *Sharded, req *Request) *Response {
	t.Helper()
	resp := g.Handle(req)
	if resp.Err != "" {
		t.Fatalf("handle: %s", resp.Err)
	}
	return resp
}

func TestShardedRoutingRoundTrip(t *testing.T) {
	const nshards = 3
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)

	// Two principals per subtree; the router must hand back global ids
	// that decode to the shard the name hashes to.
	type prin struct {
		name  string
		shard int
		id    int
	}
	var prins []prin
	for shard, tree := range trees {
		for k := 0; k < 2; k++ {
			name := fmt.Sprintf("%s/node%d", tree, k)
			resp := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: name, Capacity: 100}})
			id := resp.Register.Principal
			if s, _ := g.splitPrincipal(id); s != shard {
				t.Fatalf("principal %q got global id %d on shard %d, want shard %d", name, id, s, shard)
			}
			prins = append(prins, prin{name: name, shard: shard, id: id})
		}
	}

	// Same-subtree agreements route; the ticket decodes to that shard.
	share := mustHandle(t, g, &Request{Share: &ShareRequest{From: prins[0].id, To: prins[1].id, Fraction: 0.5}})
	if s, _ := g.splitTicket(share.Share.Ticket); s != prins[0].shard {
		t.Fatalf("ticket %d decodes to shard %d, want %d", share.Share.Ticket, s, prins[0].shard)
	}

	// Reports land on the owning shard's books.
	mustHandle(t, g, &Request{Report: &ReportRequest{Principal: prins[2].id, Available: 40}})

	// An allocation returns a globally expanded takes vector: only
	// columns of the requester's shard may be nonzero.
	alloc := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: prins[1].id, Amount: 120}})
	if s, _ := g.splitLease(alloc.Alloc.Lease); s != prins[1].shard {
		t.Fatalf("lease %d decodes to shard %d, want %d", alloc.Alloc.Lease, s, prins[1].shard)
	}
	var taken float64
	for gp, take := range alloc.Alloc.Takes {
		if take == 0 {
			continue
		}
		taken += take
		if s, _ := g.splitPrincipal(gp); s != prins[1].shard {
			t.Fatalf("take of %v from global principal %d (shard %d) crossed out of shard %d",
				take, gp, s, prins[1].shard)
		}
	}
	if taken != 120 {
		t.Fatalf("takes sum %v, want 120", taken)
	}

	// The lease releases through its global token.
	mustHandle(t, g, &Request{Release: &ReleaseRequest{Lease: alloc.Alloc.Lease}})
	// The ticket revokes through its global token.
	mustHandle(t, g, &Request{Revoke: &RevokeRequest{Ticket: share.Share.Ticket}})

	// Merged caps and peers index by global principal id.
	caps := mustHandle(t, g, &Request{Caps: &CapsRequest{}})
	peers := mustHandle(t, g, &Request{Peers: &PeersRequest{}})
	for _, p := range prins {
		if p.id >= len(caps.Caps.Available) {
			t.Fatalf("caps reply too short for global id %d", p.id)
		}
		if peers.Peers.Names[p.id] != p.name {
			t.Fatalf("peers[%d] = %q, want %q", p.id, peers.Peers.Names[p.id], p.name)
		}
		want := 100.0
		if p.id == prins[2].id {
			want = 40
		}
		if caps.Caps.Available[p.id] != want {
			t.Fatalf("avail[%d] = %v, want %v", p.id, caps.Caps.Available[p.id], want)
		}
	}

	// Unknown tokens are refused, not misrouted.
	for _, bad := range []*Request{
		{Report: &ReportRequest{Principal: g.globalPrincipal(0, 99), Available: 1}},
		{Report: &ReportRequest{Principal: -1, Available: 1}},
		{Release: &ReleaseRequest{Lease: 0}},
		{Renew: &RenewRequest{Lease: -5}},
		{Revoke: &RevokeRequest{Ticket: -1}},
	} {
		if resp := g.Handle(bad); resp.Err == "" {
			t.Fatalf("request %+v succeeded, want error", bad)
		}
	}
}

func TestShardedCrossShardShareRefused(t *testing.T) {
	g := NewSharded(2, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)
	a := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: trees[0] + "/a", Capacity: 10}}).Register.Principal
	b := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: trees[1] + "/b", Capacity: 10}}).Register.Principal
	resp := g.Handle(&Request{Share: &ShareRequest{From: a, To: b, Fraction: 0.5}})
	if resp.Err == "" {
		t.Fatal("cross-shard share succeeded")
	}
	if !strings.Contains(resp.Err, "different shards") {
		t.Fatalf("cross-shard share error %q does not name the routing rule", resp.Err)
	}
}

// driveShardedWorkload exercises every shard: registrations, intra-shard
// agreements, reports, allocations, and a release. It returns the global
// lease tokens still outstanding.
func driveShardedWorkload(t *testing.T, g *Sharded) []int {
	t.Helper()
	trees := subtreeNames(t, g)
	var ids []int
	for shard, tree := range trees {
		for k := 0; k < 3; k++ {
			resp := mustHandle(t, g, &Request{Register: &RegisterRequest{
				Name:     fmt.Sprintf("%s/n%d", tree, k),
				Capacity: float64(50 + 10*shard + k),
			}})
			ids = append(ids, resp.Register.Principal)
		}
	}
	// Per shard: one relative and one absolute agreement, a report, two
	// allocations, one release.
	var leases []int
	for shard := range trees {
		base := shard * 3
		mustHandle(t, g, &Request{Share: &ShareRequest{From: ids[base+1], To: ids[base], Fraction: 0.5}})
		mustHandle(t, g, &Request{Share: &ShareRequest{From: ids[base+2], To: ids[base], Quantity: 10}})
		mustHandle(t, g, &Request{Report: &ReportRequest{Principal: ids[base+1], Available: 30}})
		l1 := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: ids[base], Amount: 60}}).Alloc.Lease
		l2 := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: ids[base+2], Amount: 5}}).Alloc.Lease
		mustHandle(t, g, &Request{Release: &ReleaseRequest{Lease: l2}})
		leases = append(leases, l1)
	}
	return leases
}

func shardedStatusJSON(t *testing.T, g *Sharded) string {
	t.Helper()
	st, err := g.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardedPerShardWALRecovery proves the per-shard logs carry the
// whole cluster: a restarted sharded GRM replays each shard's own log
// and reproduces the merged status byte for byte.
func TestShardedPerShardWALRecovery(t *testing.T) {
	const nshards = 3
	logs := make([]store.Log, nshards)
	for i := range logs {
		logs[i] = store.NewMemLog()
	}
	g := NewSharded(nshards, core.Config{}, nil)
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	leases := driveShardedWorkload(t, g)
	want := shardedStatusJSON(t, g)

	// Every shard journaled its own workload into its own log.
	for i, l := range logs {
		if l.(*store.MemLog).Len() == 0 {
			t.Fatalf("shard %d log is empty", i)
		}
	}

	r := NewSharded(nshards, core.Config{}, nil)
	defer r.Close()
	if err := r.RecoverShards(logs); err != nil {
		t.Fatalf("RecoverShards: %v", err)
	}
	if got := shardedStatusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
	for shard := 0; shard < nshards; shard++ {
		leasesEqual(t, g.Shard(shard), r.Shard(shard))
	}
	// The recovered router keeps serving: the surviving global leases
	// release cleanly.
	for _, lease := range leases {
		mustHandle(t, r, &Request{Release: &ReleaseRequest{Lease: lease}})
	}
	g.Close()
}

// TestShardedFileLogCrashPath runs the restart a real crash takes, as
// one piece: a sharded GRM journals into per-shard FileLogs through
// allocations, releases and a compaction, the logs are closed, each
// shard directory is reopened with OpenFileLog (the torn-tail scan),
// and RecoverShards replays them. The merged status must come back
// byte for byte, and the recovered GRM keeps serving.
func TestShardedFileLogCrashPath(t *testing.T) {
	const nshards = 3
	dirs := make([]string, nshards)
	logs := make([]store.Log, nshards)
	for i := range logs {
		dirs[i] = t.TempDir()
		fl, err := store.OpenFileLog(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = fl
	}
	g := NewSharded(nshards, core.Config{}, nil)
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	leases := driveShardedWorkload(t, g)
	if err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// A tail after the compaction: more allocations, one released.
	tail := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: 0, Amount: 4}}).Alloc.Lease
	leases = append(leases, mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: 1, Amount: 3}}).Alloc.Lease)
	mustHandle(t, g, &Request{Release: &ReleaseRequest{Lease: tail}})
	want := shardedStatusJSON(t, g)
	g.Close()
	for i, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatalf("close shard %d log: %v", i, err)
		}
	}

	reopened := make([]store.Log, nshards)
	for i, dir := range dirs {
		fl, err := store.OpenFileLog(dir)
		if err != nil {
			t.Fatalf("reopen shard %d: %v", i, err)
		}
		defer fl.Close()
		reopened[i] = fl
	}
	r := NewSharded(nshards, core.Config{}, nil)
	defer r.Close()
	if err := r.RecoverShards(reopened); err != nil {
		t.Fatalf("RecoverShards: %v", err)
	}
	if got := shardedStatusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
	for _, lease := range leases {
		mustHandle(t, r, &Request{Release: &ReleaseRequest{Lease: lease}})
	}
}

// TestShardedSingleShardRestart proves shards recover independently: one
// shard's log replayed into a fresh single server reproduces exactly
// that shard's books, with the other shards' logs untouched.
func TestShardedSingleShardRestart(t *testing.T) {
	const nshards = 3
	logs := make([]store.Log, nshards)
	for i := range logs {
		logs[i] = store.NewMemLog()
	}
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	driveShardedWorkload(t, g)

	for shard := 0; shard < nshards; shard++ {
		r := NewServer(core.Config{}, nil)
		if err := r.Recover(logs[shard]); err != nil {
			t.Fatalf("shard %d: Recover: %v", shard, err)
		}
		if got, want := statusJSON(t, r), statusJSON(t, g.Shard(shard)); got != want {
			t.Fatalf("shard %d recovered status\n %s\nwant\n %s", shard, got, want)
		}
		leasesEqual(t, g.Shard(shard), r)
	}
}

// TestShardedCompact folds every shard's log into one snapshot each and
// recovers from the compacted logs.
func TestShardedCompact(t *testing.T) {
	const nshards = 2
	logs := make([]store.Log, nshards)
	for i := range logs {
		logs[i] = store.NewMemLog()
	}
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	driveShardedWorkload(t, g)
	if err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i, l := range logs {
		if n := l.(*store.MemLog).Len(); n != 1 {
			t.Fatalf("shard %d compacted log holds %d records, want 1", i, n)
		}
	}
	want := shardedStatusJSON(t, g)
	r := NewSharded(nshards, core.Config{}, nil)
	defer r.Close()
	if err := r.RecoverShards(logs); err != nil {
		t.Fatalf("RecoverShards: %v", err)
	}
	if got := shardedStatusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
}

// TestShardedWireEndToEnd drives a sharded GRM through the real wire:
// LRM clients in different subtrees register, report, allocate, and
// release over a TCP listener fronting the router.
func TestShardedWireEndToEnd(t *testing.T) {
	g := NewSharded(2, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); g.Serve(l) }()

	var lrms []*LRM
	for shard, tree := range trees {
		lrm, err := Dial(l.Addr().String(), tree+"/edge", 75)
		if err != nil {
			t.Fatalf("dial shard %d: %v", shard, err)
		}
		defer lrm.Close()
		if s, _ := g.splitPrincipal(lrm.Principal()); s != shard {
			t.Fatalf("principal %d landed on shard %d, want %d", lrm.Principal(), s, shard)
		}
		lrms = append(lrms, lrm)
	}
	for _, lrm := range lrms {
		if err := lrm.Report(60); err != nil {
			t.Fatalf("report: %v", err)
		}
		rep, err := lrm.Allocate(25)
		if err != nil {
			t.Fatalf("allocate: %v", err)
		}
		if err := lrm.Release(rep.Lease); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	st, err := g.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 || len(st.Principals) != 2 {
		t.Fatalf("status after wire workload: %d leases, %d principals", st.Leases, len(st.Principals))
	}
	g.Close()
	<-done
}
