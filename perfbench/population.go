package main

import (
	"fmt"
	"math/rand"

	"repro/internal/agreement"
	"repro/internal/grm"
)

// blockSize is the agreement block of the bulk population: consecutive
// principals of one subtree chain relative shares and close the chain with
// an absolute one — the sparse shape cmd/loadgen populates.
const blockSize = 8

// shardShare is one agreement as its shard sees it (shard-local ids), kept
// so the benchmark can rebuild a shard's graph from its own inputs.
type shardShare struct {
	from, to int
	fraction float64
	quantity float64
}

// shardBook is everything the benchmark registered on one shard, in order.
type shardBook struct {
	names  []string
	caps   []float64
	shares []shardShare
	bulk   []int // global ids of the bulk principals
}

// population is the generated bulk book of one sharded GRM.
type population struct {
	nshards  int
	shards   []shardBook
	blocks   [][]int  // global ids of each block's principals
	subtrees []string // each block's subtree name
}

// handler is the in-process entry point both the shard router and a plain
// server offer.
type handler interface {
	Handle(*grm.Request) *grm.Response
}

func do(h handler, req *grm.Request) (*grm.Response, error) {
	resp := h.Handle(req)
	if resp.Err != "" {
		return nil, fmt.Errorf("%s", resp.Err)
	}
	return resp, nil
}

// subtree names block b's subtree so that it routes to shard b mod the
// shard count: every shard holds the same number of blocks whatever the
// seed.
func subtree(g *grm.Sharded, b int) string {
	name := fmt.Sprintf("b%d", b)
	for k := 1; g.ShardOf(name) != b%g.NumShards(); k++ {
		name = fmt.Sprintf("b%d.%d", b, k)
	}
	return name
}

// populate registers bulk principals "<subtree>/p<k>" with capacities
// drawn from rng and chains each block's agreements, through the router's
// in-process Handle.
func populate(g *grm.Sharded, bulk int, rng *rand.Rand) (*population, error) {
	pop := &population{nshards: g.NumShards(), shards: make([]shardBook, g.NumShards())}
	var block []int
	for k := 0; k < bulk; k++ {
		if k%blockSize == 0 {
			pop.subtrees = append(pop.subtrees, subtree(g, k/blockSize))
		}
		name := fmt.Sprintf("%s/p%d", pop.subtrees[k/blockSize], k)
		capacity := 1 + rng.Float64()*9
		resp, err := do(g, &grm.Request{Register: &grm.RegisterRequest{Name: name, Capacity: capacity}})
		if err != nil {
			return nil, fmt.Errorf("register bulk principal %d: %w", k, err)
		}
		pid := resp.Register.Principal
		sb := &pop.shards[pid%pop.nshards]
		sb.names = append(sb.names, name)
		sb.caps = append(sb.caps, capacity)
		sb.bulk = append(sb.bulk, pid)
		block = append(block, pid)
		if len(block) < blockSize && k < bulk-1 {
			continue
		}
		for j := 0; j+1 < len(block); j++ {
			if err := pop.share(g, block[j], block[j+1], 0.1+rng.Float64()*0.3, 0); err != nil {
				return nil, err
			}
		}
		if len(block) >= 2 {
			if err := pop.share(g, block[len(block)-1], block[0], 0, 1+rng.Float64()*3); err != nil {
				return nil, err
			}
		}
		pop.blocks = append(pop.blocks, append([]int(nil), block...))
		block = block[:0]
	}
	return pop, nil
}

// share creates one agreement in-process and records it on its shard.
func (pop *population) share(h handler, from, to int, fraction, quantity float64) error {
	if _, err := do(h, &grm.Request{Share: &grm.ShareRequest{From: from, To: to, Fraction: fraction, Quantity: quantity}}); err != nil {
		return fmt.Errorf("share %d -> %d: %w", from, to, err)
	}
	pop.noteShare(from, to, fraction, quantity)
	return nil
}

func (pop *population) noteShare(from, to int, fraction, quantity float64) {
	sb := &pop.shards[from%pop.nshards]
	sb.shares = append(sb.shares, shardShare{from: from / pop.nshards, to: to / pop.nshards, fraction: fraction, quantity: quantity})
}

// noteRegister records a principal registered over the wire.
func (pop *population) noteRegister(pid int, name string, capacity float64) {
	sb := &pop.shards[pid%pop.nshards]
	sb.names = append(sb.names, name)
	sb.caps = append(sb.caps, capacity)
}

// system rebuilds one shard's agreement system from the recorded inputs,
// the way the GRM builds it: one general resource per principal, relative
// shares as fraction·FaceValue units, absolute shares as quantities.
func (sb *shardBook) system() (*agreement.System, error) {
	sys := agreement.NewSystem()
	for i, name := range sb.names {
		pid := sys.AddPrincipal(name)
		if _, err := sys.AddResource(name, agreement.General, pid, sb.caps[i]); err != nil {
			return nil, err
		}
	}
	for _, sh := range sb.shares {
		from := sys.CurrencyOf(agreement.PrincipalID(sh.from))
		to := sys.CurrencyOf(agreement.PrincipalID(sh.to))
		var err error
		if sh.fraction > 0 {
			_, err = sys.ShareRelative(from, to, sh.fraction*sys.Currency(from).FaceValue)
		} else {
			_, err = sys.ShareAbsolute(from, to, agreement.General, sh.quantity, agreement.Sharing)
		}
		if err != nil {
			return nil, err
		}
	}
	return sys, nil
}
