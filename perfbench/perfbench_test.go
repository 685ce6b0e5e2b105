package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, in a short mode:
// populations shrunk eightfold and a half-second window. Each run must
// pass its correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			a := args{workload: name, seed: 3, window: 500 * time.Millisecond, trace: traced, tmpdir: t.TempDir(), short: true}
			if err := run(a); err != nil {
				t.Errorf("%s (traced %v): %v", name, traced, err)
			}
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names the
// workloads and gated metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q unknown to the program", w.Name)
		}
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		want   map[string]string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.listed) != len(set.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.listed), len(set.want))
		}
		for _, m := range set.listed {
			if unit, ok := set.want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("metric %q (%s): program reports unit %q (known %v)", m.Name, m.Unit, unit, ok)
			}
		}
	}
}

// TestCalmSliceMedianEmpty checks that a slice with no observations is
// left out of the calm quartile and counted, instead of reading as a 0 ms
// median that would look like a speed-up.
func TestCalmSliceMedianEmpty(t *testing.T) {
	var s samples
	span := 10 * time.Second
	for i := 0; i < 10; i++ {
		if i < 4 {
			continue // slices 0-3 see no successful request
		}
		for j := 0; j < 5; j++ {
			s.addAt(time.Duration(i)*time.Second+time.Duration(j)*time.Millisecond, time.Duration(i)*time.Millisecond)
		}
	}
	got, empty := calmSliceMedian(&s, 10, span)
	if empty != 4 {
		t.Errorf("empty slices = %d, want 4", empty)
	}
	// The six medians are 4..9 ms; the lower quartile is the 2nd lowest.
	if got != 5 {
		t.Errorf("calm slice median = %g ms, want 5", got)
	}
}

// TestClosedSlicesHoldOneRevoke checks the closed phase's shape at the
// benchmark's window and that, with churn, each measured slice holds
// exactly one Revoke of the two LRMs, which take turns.
func TestClosedSlicesHoldOneRevoke(t *testing.T) {
	window := 18 * time.Second
	open, p := splitRound(window)
	if d := window - rounds*(open+p.length()); p.k != 4 || d < 0 || d >= rounds {
		t.Fatalf("round: open %v, closed %+v", open, p)
	}
	spec := *workloads["agreement-churn"]
	pop := &population{shards: make([]shardBook, spec.shards)}
	pop.shards[0].bulk = []int{8, 16}
	perSlice := make([][]int, p.k)
	for lane := 0; lane < 2; lane++ {
		c := &client{shard: 0}
		rng := rand.New(rand.NewSource(int64(lane)))
		for _, o := range schedule(spec, pop, c, lane, 2, rng, p.length(), true) {
			// runOpen starts its schedule 20 ms after the phase starts.
			at := o.due + 20*time.Millisecond - p.warm
			if o.kind != kRevoke || at < 0 {
				continue
			}
			if j := int(at / p.slice); j < p.k {
				perSlice[j] = append(perSlice[j], lane)
			}
		}
	}
	for j, lanes := range perSlice {
		if len(lanes) != 1 || lanes[0] != j%2 {
			t.Errorf("slice %d holds Revokes of lanes %v, want [%d]", j, lanes, j%2)
		}
	}
}
