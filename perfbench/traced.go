package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"
)

// layerKinds are the metric-safe names of the platform kinds the
// workloads construct.
var layerKinds = []string{"biza", "dmzap_raizn", "mdraid_dmzap", "mdraid_convssd"}

// cpuBuckets are the CPU-profile attribution buckets: the program's layers,
// the runtime's allocator and collector, the benchmark itself, the rest.
var cpuBuckets = []string{"sim", "stack", "nvme", "zns", "ftl", "core", "erasure", "buf",
	"dmzap", "raizn", "mdraid", "volume", "runtime_malloc", "runtime_gc", "harness", "other"}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a metric that does not apply to the workload reads
// 0 (meta.json records which workloads each one applies to).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_op", "count"}, {"sim.ns_per_event", "ns"}, {"sim.pending_mean", "count"},
		{"shard.speedup_2v1", "ratio"}, {"shard.cpu_util", "ratio"}, {"shard.sends_per_op", "count"},
	}
	for _, k := range layerKinds {
		defs = append(defs, metricDef{"stack.setup_ms." + k, "ms"}, metricDef{"stack.setup_alloc_mb." + k, "MB"})
	}
	defs = append(defs,
		metricDef{"nvme.cmds_per_op", "count"}, metricDef{"nvme.reordered_per_op", "count"},
		metricDef{"nvme.retries", "count"}, metricDef{"nvme.write_ns", "ns"},
		metricDef{"zns.absorbed_ratio", "ratio"}, metricDef{"zns.erases_per_GB", "1/GB"},
		metricDef{"zns.buf_copied_bytes_per_op", "B"}, metricDef{"zns.write_ns", "ns"}, metricDef{"zns.read_ns", "ns"},
		metricDef{"ftl.gc_events", "count"}, metricDef{"ftl.write_ns", "ns"},
		metricDef{"core.submit_ns", "ns"}, metricDef{"core.gc_events_per_kop", "count"},
		metricDef{"core.inplace_hits_per_kop", "count"}, metricDef{"core.busy_collisions", "count"},
		metricDef{"erasure.encode_MBps", "MB/s"}, metricDef{"erasure.delta_MBps", "MB/s"},
		metricDef{"buf.gets_per_op", "count"}, metricDef{"buf.miss_ratio", "ratio"},
		metricDef{"buf.copied_bytes_per_op", "B"}, metricDef{"buf.get_release_ns", "ns"},
		metricDef{"dmzap.submit_ns", "ns"}, metricDef{"raizn.submit_ns", "ns"},
		metricDef{"mdraid.submit_ns", "ns"}, metricDef{"dmzap.gc_events", "count"},
		metricDef{"volume.submit_ns", "ns"}, metricDef{"volume.throttle_stalls_per_kop", "count"},
		metricDef{"volume.max_queue_depth", "count"}, metricDef{"volume.share_error", "ratio"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "%"})
	}
	return append(defs,
		metricDef{"go.gc_cpu_fraction", "ratio"}, metricDef{"harness.ns_per_op", "ns"},
		metricDef{"trace.overhead_pct", "%"}, metricDef{"run.op_fail_ratio", "ratio"},
		metricDef{"sim_lat_p50_us", "us"}, metricDef{"sim_lat_p99_us", "us"}, metricDef{"sim_lat_p999_us", "us"})
}()

type metricDef struct{ name, unit string }

// runTraced is the traced run. Until the host-time budget is spent it
// alternates a plain round under the CPU profiler with a traced round of
// the same inputs (and, for sharded workloads, a one-shard round), so the
// trace overhead and shard speed-up compare like with like. Standalone
// per-layer timings follow.
func runTraced(o options, stderr io.Writer) (*result, error) {
	w := workloads[o.workload]
	res := newResult()
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	cpu := cpuProfile{}
	var all []*round
	var plain, traced, oneShard []float64
	var last *tracer
	var lastSim simResult
	for len(plain) == 0 || time.Since(start) < budget {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		a, err := w.round(roundCfg{seed: o.seed, shards: w.shards, short: o.short})
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := cpu.add(prof.Bytes()); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		t := newTracer()
		b, err := w.round(roundCfg{seed: o.seed, shards: w.shards, short: o.short, tr: t})
		if err != nil {
			return nil, err
		}
		if b.sim != a.sim {
			res.fail("tracing changed the simulated results: %+v vs %+v", b.sim, a.sim)
		}
		all = append(all, a, b)
		plain = append(plain, opsPerSec(a))
		traced = append(traced, opsPerSec(b))
		if w.shards > 1 {
			c, err := w.round(roundCfg{seed: o.seed, shards: 1, short: o.short})
			if err != nil {
				return nil, err
			}
			all = append(all, c)
			oneShard = append(oneShard, opsPerSec(c))
		}
		last, lastSim = t, b.sim
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d traced pairs=%d host=%.2fs\n",
		o.workload, o.seed, len(plain), time.Since(start).Seconds())
	checkRounds(res, all)

	vals := last.vals
	vals["trace.overhead_pct"] = (median(plain)/median(traced) - 1) * 100
	vals["sim_lat_p50_us"] = float64(lastSim.P50) / 1e3
	vals["sim_lat_p99_us"] = float64(lastSim.P99) / 1e3
	// p99.9 is reported only with at least ten samples beyond it.
	if lastSim.Samples >= 10000 {
		vals["sim_lat_p999_us"] = float64(lastSim.P999) / 1e3
	}
	if len(oneShard) > 0 {
		vals["shard.speedup_2v1"] = median(plain) / median(oneShard)
	}
	for b, share := range cpu.shares() {
		vals["cpu."+b] = share
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["go.gc_cpu_fraction"] = ms.GCCPUFraction
	if err := standalone(o.workload, o.seed, last.cmdSizes, vals); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		res.set(d.name, d.unit, vals[d.name])
	}
	if err := last.write(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

func opsPerSec(r *round) float64 { return float64(r.attempted) / r.work.Seconds() }
