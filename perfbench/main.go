// Command perfbench is the repository's benchmark. Each run sets one
// workload up from a seed, drives it from this single process — GRM
// workloads over the real binary wire from at most two LRM connections to
// in-process GRMs on loopback listeners — checks the outputs, and prints
// every metric by name, unit and sample count. The last line of standard
// output is one JSON object with the gated metrics: the end-to-end set
// when untraced, the per-layer set when traced (--trace 1).
//
//	go run . --workload alloc-steady --seed 1 --seconds 18 --trace 0
//
// Workloads, their rates and mixes, and which per-layer metric should move
// which end-to-end metric are described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its shape. proxy-day is not a GRM
// workload and has no spec.
var workloads = map[string]*grmSpec{
	"alloc-steady":    {shards: 8, bulk: 16000, recover: true, setups: 3},
	"agreement-churn": {shards: 8, bulk: 16000, churnRate: 2, setups: 3},
	"tree-borrow":     {shards: 4, bulk: 4000, tree: true, setups: 9},
	"proxy-day":       nil,
}

// endToEnd and perLayer are the gated metric sets (name → unit); they
// match BENCHMARK.json.
var endToEnd = map[string]string{
	"setup_s": "s",
	"heap_mb": "MB",
	"p50_ms":  "ms",
	"tput":    "1/s",
}

var perLayer = map[string]string{
	"gen.late_p99_ms":               "ms",
	"transport.alloc_reply_bytes":   "bytes",
	"transport.wire_alloc_us":       "us",
	"grm.handle_alloc_us_p50":       "us",
	"grm.handle_alloc_us_p99":       "us",
	"grm.handle_release_us_p50":     "us",
	"grm.handle_release_us_p99":     "us",
	"grm.handle_share_us_p50":       "us",
	"grm.handle_share_us_p99":       "us",
	"grm.handle_revoke_us_p50":      "us",
	"grm.handle_revoke_us_p99":      "us",
	"grm.batch_mean":                "count",
	"grm.plan_conflicts_per_kalloc": "count",
	"grm.batch_busy_s":              "s",
	"grm.self_s":                    "s",
	"core.build_ms":                 "ms",
	"core.plan_us_p50":              "us",
	"core.plan_us_p99":              "us",
	"core.capacities_us":            "us",
	"core.setshare_us":              "us",
	"core.heap_mb_per_shard":        "MB",
	"transitive.closure_ms":         "ms",
	"transitive.closure10_ms":       "ms",
	"transitive.update_edge_us":     "us",
	"store.append_us_p50":           "us",
	"store.append_us_p99":           "us",
	"store.appends_per_op":          "count",
	"store.bytes_per_record":        "bytes",
	"store.replay_s":                "s",
	"store.self_s":                  "s",
	"federation.borrow_frac":        "ratio",
	"federation.root_batch_us":      "us",
	"sim.plan_calls":                "count",
	"sim.plan_us":                   "us",
	"sim.plan_frac":                 "ratio",
	"sim.self_s":                    "s",
	"trace.gen_s":                   "s",
	"trace.overhead_us":             "us",
	"trace.spans":                   "count",
}

// sized returns the spec, with its population shrunk eightfold when short.
func (s grmSpec) sized(short bool) grmSpec {
	if short {
		s.bulk /= 8
	}
	return s
}

type args struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	tmpdir   string
	// short shrinks every GRM population eightfold (the smoke test).
	short bool
}

func main() {
	var a args
	var seconds float64
	var trace int
	flag.StringVar(&a.workload, "workload", "", "workload: alloc-steady, agreement-churn, tree-borrow or proxy-day")
	flag.Int64Var(&a.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&a.tmpdir, "tmpdir", os.TempDir(), "directory for WALs and span dumps")
	flag.Parse()
	a.window = time.Duration(seconds * float64(time.Second))
	a.trace = trace == 1
	if err := run(a); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed a correctness check; its
// result line is still printed, with correct=false.
var errIncorrect = errors.New("correctness checks failed")

func run(a args) error {
	spec, ok := workloads[a.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	if a.window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(a.tmpdir, 0o755); err != nil {
		return fmt.Errorf("tmpdir: %w", err)
	}
	var rep *report
	var st *runStats
	var err error
	switch {
	case spec == nil && a.trace:
		rep, st, err = traceProxyDay(a)
	case spec == nil:
		rep, st, err = runProxyDay(a)
	case a.trace:
		rep, st, err = traceGRM(spec.sized(a.short), a)
	default:
		rep, st, err = runGRM(spec.sized(a.short), a)
	}
	if err != nil {
		return err
	}
	rep.print()
	for _, p := range st.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	gated := endToEnd
	if a.trace {
		gated = perLayer
	}
	if err := printResult(rep, st, gated); err != nil {
		return err
	}
	if len(st.problems) > 0 {
		return errIncorrect
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the final JSON line. A gated metric the workload does
// not exercise reads 0.
func printResult(rep *report, st *runStats, gated map[string]string) error {
	names := make([]string, 0, len(gated))
	for name := range gated {
		names = append(names, name)
	}
	sort.Strings(names)
	metrics := map[string]jsonMetric{}
	for _, name := range names {
		metrics[name] = jsonMetric{Value: rep.m[name].value, Unit: gated[name]}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(st.problems) == 0, max(st.attempted, 1), st.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
