// Command perfbench measures the host cost of simulating the BIZA array
// and its baselines, end to end and layer by layer.
//
// Each run repeats one seeded workload round after round for a fixed
// host-time budget. A round constructs a fresh platform (timed as set-up),
// drives it with closed-loop clients for a fixed virtual horizon, flushes,
// drains and checks its outputs. Host metrics are medians over rounds;
// simulated metrics must be bit-identical in every round, or the run
// fails. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 1 the run instead reports per-layer metrics: spans around
// every call the benchmark makes into a layer, exact counts from the
// layers' accessors, a CPU profile attributed by package, and standalone
// per-layer timings. Spans and counts are written under
// .bench_build/perfbench-out in the working directory.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	short    bool // scaled-down horizons for the benchmark's own tests
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	o.out = traceDir
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var res *result
	if o.trace {
		res, err = runTraced(o, stderr)
	} else {
		res, err = runTimed(o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	line, err := res.marshal()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final report.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	failures          []string // output and determinism checks that failed
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) marshal() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, r.failed, r.metrics})
}

// runTimed is the untraced run: rounds until the host-time budget is
// spent, end-to-end metrics as medians over rounds.
func runTimed(o options, stderr io.Writer) (*result, error) {
	w := workloads[o.workload]
	res := newResult()
	budget := time.Duration(o.seconds * float64(time.Second))
	// The first round warms the heap and page cache up; it is checked
	// like every other round but excluded from the host metrics.
	warm, err := w.round(roundCfg{seed: o.seed, shards: w.shards, short: o.short})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var rounds []*round
	for len(rounds) < minRounds || time.Since(start) < budget {
		rd, err := w.round(roundCfg{seed: o.seed, shards: w.shards, short: o.short})
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d rounds=%d host=%.2fs\n",
		o.workload, o.seed, len(rounds), time.Since(start).Seconds())
	checked := append([]*round{warm}, rounds...)
	if w.shards > 1 {
		// Determinism across layouts: a last, untimed round on one shard
		// must simulate exactly like the sharded ones.
		one, err := w.round(roundCfg{seed: o.seed, shards: 1, short: o.short})
		if err != nil {
			return nil, err
		}
		checked = append(checked, one)
	}
	checkRounds(res, checked)
	endToEnd(res, rounds)
	return res, nil
}

// minRounds is the fewest rounds a run makes: enough for a median and for
// the repeat-determinism check.
const minRounds = 3

// checkRounds folds every round's output checks into res and checks that
// the simulated results, and the I/O counts with them, repeat exactly.
// Every round replays the same seeded I/O stream, so the run reports the
// I/Os of one round as attempted and failed: the counts then depend on
// the seed alone, not on how many rounds the host-time budget allowed.
func checkRounds(res *result, rounds []*round) {
	first := rounds[0]
	res.attempted, res.failed = first.attempted, first.failed
	for i, rd := range rounds {
		for _, f := range rd.failures {
			res.fail("round %d: %s", i, f)
		}
		if rd.sim != first.sim || rd.attempted != first.attempted || rd.failed != first.failed {
			res.fail("round %d: simulated results not repeatable: %d/%d failed, %+v vs %d/%d failed, %+v",
				i, rd.failed, rd.attempted, rd.sim, first.failed, first.attempted, first.sim)
		}
	}
}

// endToEnd sets every end-to-end metric from the rounds.
func endToEnd(res *result, rounds []*round) {
	med := func(f func(*round) float64) float64 {
		v := make([]float64, len(rounds))
		for i, rd := range rounds {
			v[i] = f(rd)
		}
		return median(v)
	}
	s := rounds[0].sim
	res.set("host_ops_per_s", "1/s", med(func(r *round) float64 { return float64(r.attempted) / r.work.Seconds() }))
	res.set("sim_ns_per_wall_s", "ns/s", med(func(r *round) float64 { return float64(r.sim.Advanced) / r.work.Seconds() }))
	res.set("setup_s", "s", med(func(r *round) float64 { return r.setup.Seconds() }))
	res.set("allocs_per_op", "count", med(func(r *round) float64 { return float64(r.mallocs) / float64(r.attempted) }))
	res.set("alloc_bytes_per_op", "B", med(func(r *round) float64 { return float64(r.allocBytes) / float64(r.attempted) }))
	res.set("peak_heap_mb", "MB", med(func(r *round) float64 { return float64(r.peakHeap) / 1e6 }))
	res.set("op_ok_ratio", "ratio", 1-float64(res.failed)/float64(res.attempted))
	res.set("sim_user_MBps", "MB/s", float64(s.Bytes)/1e6/(float64(s.Window)/1e9))
	res.set("sim_lat_mean_us", "us", s.Mean/1e3)
	res.set("sim_lat_tail_mean_us", "us", s.TailMean/1e3)
	res.set("sim_lat_samples", "count", float64(s.Samples))
	res.set("flash_wa", "ratio", s.FlashWA)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traceDir is where a traced run writes its spans and layer snapshots,
// relative to the working directory.
const traceDir = ".bench_build/perfbench-out"
