package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"time"

	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/zns"
)

// workload is one benchmark input set.
type workload struct {
	round  func(roundCfg) (*round, error)
	shards int // engine shards of the timed rounds (0 = single engine)
}

// workloads maps each benchmark workload name to its round function.
// Why each workload exists is recorded in meta.json.
var workloads = map[string]workload{
	"biza_gc_randwrite": {round: roundGCRandWrite},
	"baseline_fio_grid": {round: roundBaselineGrid},
	"tenant_mixed_rw":   {round: roundTenantMixed},
	"fleet_sharded":     {round: roundFleet, shards: 2},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// platformSeed seeds the simulated hardware (device jitter, channel
// layout) of every workload but the baseline grid (see grid.go). It is
// fixed, so --seed varies only the I/O streams the benchmark generates.
const platformSeed = 1

// roundCfg parameterizes one round.
type roundCfg struct {
	seed   uint64
	shards int
	short  bool
	tr     *tracer // nil in timed rounds
}

// simResult is everything a round measures in virtual time. It is
// compared with == across rounds and shard layouts, so it holds only
// values that must repeat exactly for a seed.
type simResult struct {
	Samples  int64  // latency samples (measured-window user I/Os)
	Bytes    uint64 // user bytes moved in the measured windows
	Window   int64  // virtual ns of the measured windows
	Advanced int64  // virtual ns advanced after construction
	P50      int64  // completion latency percentiles, virtual ns
	P99      int64
	P999     int64
	Mean     float64 // mean latency of completed I/Os, virtual ns
	TailMean float64 // mean of the slowest 1% of completed I/Os
	FlashWA  float64
	Events   int64 // engine events fired (single-engine workloads)
	Failed   int64
}

// round is the outcome of one construction plus run of a workload.
type round struct {
	setup      time.Duration // host time constructing platforms, volumes, shard group
	work       time.Duration // host time of everything after construction
	attempted  int64         // user I/Os submitted after construction
	failed     int64         // ... of which completed with an error
	mallocs    uint64        // heap allocations during work
	allocBytes uint64
	peakHeap   uint64 // largest heap-object bytes seen from set-up on
	sim        simResult
	failures   []string // output checks that failed
}

func (r *round) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// failLatency is recorded for a failed I/O, so a failure counts as
// missing every latency limit.
const failLatency = 10 * sim.Second

// meter measures one round's host cost. A round alternates between
// set-up phases (constructing platforms, volumes, shard group) and work
// phases (everything else); time and heap allocations are charged to the
// phase they occur in.
type meter struct {
	r        *round
	tr       *tracer
	t0       time.Time // start of the current phase
	ms       runtime.MemStats
	mallocs  uint64 // allocation counters at the start of the current phase
	bytes    uint64
	workMal  uint64 // allocations charged to work phases
	workByte uint64
	sample   []rtmetrics.Sample
	events   int64
	pending  int64 // sum of heap sizes seen by each Step

	lastSetup      time.Duration // the most recent set-up phase
	lastSetupBytes uint64
}

// startRound collects garbage left by earlier rounds, so each round starts
// from the same heap, and opens the first set-up phase.
func startRound(tr *tracer) *meter {
	runtime.GC()
	m := &meter{r: &round{}, tr: tr, sample: []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	m.mallocs, m.bytes = m.readMem()
	m.t0 = time.Now()
	return m
}

func (m *meter) readMem() (mallocs, bytes uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs, m.ms.TotalAlloc
}

// setupDone closes a set-up phase and opens a work phase.
func (m *meter) setupDone() {
	m.lastSetup = time.Since(m.t0)
	m.r.setup += m.lastSetup
	mal, b := m.readMem()
	m.lastSetupBytes = b - m.bytes
	m.mallocs, m.bytes = mal, b
	m.sampleHeap()
	m.t0 = time.Now()
}

// resumeSetup closes a work phase and opens a set-up phase (workloads
// that build one platform per cell).
func (m *meter) resumeSetup() {
	m.r.work += time.Since(m.t0)
	mal, b := m.readMem()
	m.workMal += mal - m.mallocs
	m.workByte += b - m.bytes
	m.mallocs, m.bytes = mal, b
	m.t0 = time.Now()
}

// done closes the final work phase.
func (m *meter) done() *round {
	m.resumeSetup()
	m.sampleHeap()
	m.r.mallocs, m.r.allocBytes = m.workMal, m.workByte
	m.r.sim.Events = m.events
	if m.tr != nil {
		m.tr.finish(m)
	}
	return m.r
}

func (m *meter) sampleHeap() {
	rtmetrics.Read(m.sample)
	if v := m.sample[0].Value.Uint64(); v > m.r.peakHeap {
		m.r.peakHeap = v
	}
}

// pump fires events until eng is idle, counting them; it samples the heap
// every 4096 events.
func (m *meter) pump(eng *sim.Engine) {
	id := m.tr.begin("step")
	defer m.tr.end(id)
	for eng.Step() {
		m.events++
		m.pending += int64(eng.Pending())
		if m.events&4095 == 0 {
			m.sampleHeap()
		}
	}
}

// latencies collects simulated completion latencies and user traffic of
// one measured window. Every sample is kept, so percentiles are exact
// order statistics rather than histogram bucket midpoints.
type latencies struct {
	ok     []sim.Time // latencies of I/Os that completed without error
	bytes  uint64
	failed int64
}

func (l *latencies) record(err error, lat sim.Time, bytes int) {
	if err != nil {
		l.failed++
		return
	}
	l.ok = append(l.ok, lat)
	l.bytes += uint64(bytes)
}

func (l *latencies) merge(o *latencies) {
	l.ok = append(l.ok, o.ok...)
	l.bytes += o.bytes
	l.failed += o.failed
}

func (l *latencies) count() int64 { return int64(len(l.ok)) + l.failed }

// fill copies the window's latency summary into s. Percentiles rank a
// failed I/O above every completed one, so a failure counts as missing
// every latency limit. The means cover completed I/Os only: the model's
// service times are quantized, so order statistics can repeat exactly
// across seeds while the means still move.
func (l *latencies) fill(s *simResult) {
	sorted := slices.Clone(l.ok)
	slices.Sort(sorted)
	n := l.count()
	pct := func(p float64) int64 {
		i := int(p / 100 * float64(n))
		if i >= len(sorted) {
			return failLatency
		}
		return sorted[i]
	}
	mean := func(v []sim.Time) float64 {
		var sum float64
		for _, x := range v {
			sum += float64(x)
		}
		return sum / float64(max(len(v), 1))
	}
	s.Samples = n
	s.Bytes = l.bytes
	s.P50 = pct(50)
	s.P99 = pct(99)
	s.P999 = pct(99.9)
	s.Mean = mean(sorted)
	s.TailMean = mean(sorted[len(sorted)-len(sorted)/100:])
	s.Failed = l.failed
}

// checkZones verifies the ZNS zone contracts on every member device: no
// more open zones than the device allows and no write pointer past its
// zone's capacity.
func checkZones(r *round, devs []*zns.Device) {
	for i, d := range devs {
		open := 0
		for z, info := range d.ReportZones() {
			if info.State.IsOpen() {
				open++
			}
			if info.WritePtr > info.Capacity {
				r.fail("zns: device %d zone %d write pointer %d beyond capacity %d", i, z, info.WritePtr, info.Capacity)
			}
		}
		if max := d.Config().MaxOpenZones; open > max {
			r.fail("zns: device %d has %d open zones, limit %d", i, open, max)
		}
	}
}

// checkPool verifies that the BIZA buffer pool holds no buffers once the
// array has been flushed and drained.
func checkPool(r *round, p *stack.Platform) {
	if live := p.BIZA.Pool().Live(); live != 0 {
		r.fail("buf: %d pooled buffers still live after flush and drain", live)
	}
}
