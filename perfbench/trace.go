package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"biza/internal/blockdev"
	"biza/internal/dmzap"
	"biza/internal/obs"
	"biza/internal/stack"
)

// tracer records the traced run of one round: spans around every call the
// benchmark makes into a layer, layer counts read at the same boundaries,
// and the per-layer values derived from them. Every method is a no-op on a
// nil tracer, which is what timed rounds carry.
type tracer struct {
	t0       time.Time
	spans    []span
	dropped  int64 // spans beyond maxSpans, aggregated but not kept
	stack    []open
	nextID   uint64
	agg      map[string]*spanAgg
	snaps    []snapshot
	obs      *obs.Trace
	harnNs   int64
	cmdSizes []int64 // nvme write command sizes seen by the program's trace

	// Totals over the BIZA arrays of a round (see layerStats).
	acc                   layerCounts
	accOps                int64
	nvmeSpans, arraySpans int64
	vals                  map[string]float64
	setups                map[string][]float64 // kind -> set-up ms per platform
	setupMB               map[string][]float64 // kind -> set-up MB allocated per platform
}

// span is one recorded interval, in host ns since the tracer started.
// Spans issued for one user request carry the request's id.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg totals the spans of one name: their durations and their self
// time (duration minus the time their child spans cover).
type spanAgg struct{ ns, self, n int64 }

// open is a span that has begun and not yet ended.
type open struct {
	id, parent uint64
	name       string
	start      int64
	child      int64 // ns covered by closed child spans
}

// snapshot is the layer counts read at one boundary.
type snapshot struct {
	At     string      `json:"at"`
	HostNs int64       `json:"host_ns"`
	Counts layerCounts `json:"counts"`
}

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-name aggregates.
const maxSpans = 1 << 20

// obsCapacity sizes the program's own trace ring in traced rounds.
const obsCapacity = 1 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*spanAgg{}, vals: map[string]float64{},
		setups: map[string][]float64{}, setupMB: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	o := open{id: t.nextID, name: name, start: t.now()}
	if n := len(t.stack); n > 0 {
		o.parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, o)
	return o.id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if o.id != id {
		panic(fmt.Sprintf("perfbench: span %d (%s) closed out of order", id, o.name))
	}
	end := t.now()
	a := t.agg[o.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[o.name] = a
	}
	a.ns += end - o.start
	a.self += end - o.start - o.child
	a.n++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += end - o.start
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: o.name, ID: o.id, Parent: o.parent, Start: o.start, End: end})
	} else {
		t.dropped++
	}
}

// harness starts timing benchmark-side work (generators, reference
// checks), so its cost is reported apart from the program's.
func (t *tracer) harness() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) harnessDone(h time.Time) {
	if t != nil {
		t.harnNs += int64(time.Since(h))
	}
}

// obsTrace returns the program's own trace for a traced round, nil
// otherwise.
func (t *tracer) obsTrace() *obs.Trace {
	if t == nil {
		return nil
	}
	t.obs = obs.New(obs.Config{Capacity: obsCapacity})
	return t.obs
}

// setup records the set-up phase that just ended as the construction of n
// platforms of kind.
func (t *tracer) setup(kind string, m *meter, n int) {
	if t == nil {
		return
	}
	t.setups[kind] = append(t.setups[kind], float64(m.lastSetup)/1e6/float64(n))
	t.setupMB[kind] = append(t.setupMB[kind], float64(m.lastSetupBytes)/1e6/float64(n))
}

// layerCounts are the exact counts a BIZA platform's layers expose.
type layerCounts struct {
	CoreGC, CoreInPlace, CoreCollisions uint64
	NVMeReordered, NVMeRetries          uint64
	ZNSAbsorbed, ZNSProgrammed          uint64
	ZNSErases, ZNSBufCopied             uint64
	UserBytes                           uint64
	BufGets, BufMisses, BufCopiedBytes  int64
}

func (c layerCounts) minus(o layerCounts) layerCounts { return c.combine(o, -1) }

func (c layerCounts) plus(o layerCounts) layerCounts { return c.combine(o, 1) }

// combine returns c + sign*o field by field.
func (c layerCounts) combine(o layerCounts, sign int64) layerCounts {
	u := func(a, b uint64) uint64 { return a + uint64(sign)*b }
	i := func(a, b int64) int64 { return a + sign*b }
	return layerCounts{
		u(c.CoreGC, o.CoreGC), u(c.CoreInPlace, o.CoreInPlace), u(c.CoreCollisions, o.CoreCollisions),
		u(c.NVMeReordered, o.NVMeReordered), u(c.NVMeRetries, o.NVMeRetries),
		u(c.ZNSAbsorbed, o.ZNSAbsorbed), u(c.ZNSProgrammed, o.ZNSProgrammed),
		u(c.ZNSErases, o.ZNSErases), u(c.ZNSBufCopied, o.ZNSBufCopied),
		u(c.UserBytes, o.UserBytes),
		i(c.BufGets, o.BufGets), i(c.BufMisses, o.BufMisses), i(c.BufCopiedBytes, o.BufCopiedBytes),
	}
}

func countsOf(p *stack.Platform) layerCounts {
	var c layerCounts
	c.CoreGC = p.BIZA.GCEvents()
	c.CoreInPlace = p.BIZA.InPlaceHits()
	_, c.CoreCollisions = p.BIZA.BusyCollisions()
	for _, q := range p.Queues() {
		c.NVMeReordered += q.Reordered()
		c.NVMeRetries += q.Retries()
	}
	for _, d := range p.ZNSDevs {
		st := d.Stats()
		c.ZNSAbsorbed += st.AbsorbedBytes
		c.ZNSProgrammed += st.TotalProgrammed()
		c.ZNSErases += st.Erases
		c.ZNSBufCopied += st.BufCopiedBytes
	}
	wa := p.FlashWriteAmp()
	c.UserBytes = wa.UserBytes
	st := p.BIZA.Pool().Stats()
	c.BufGets, c.BufMisses, c.BufCopiedBytes = st.Gets, st.Misses, st.CopiedBytes
	return c
}

// counts reads the layer counts of a BIZA platform at boundary at.
func (t *tracer) counts(at string, p *stack.Platform) {
	if t == nil {
		return
	}
	t.snaps = append(t.snaps, snapshot{At: at, HostNs: t.now(), Counts: countsOf(p)})
}

func (t *tracer) snapshot(at string) layerCounts {
	for i := len(t.snaps) - 1; i >= 0; i-- {
		if t.snaps[i].At == at {
			return t.snaps[i].Counts
		}
	}
	panic("perfbench: no layer snapshot " + at)
}

// layerStats adds one BIZA array's counts between snapshot from and the
// final one, plus its program-trace span counts, to the round's totals and
// derives the per-layer metrics from those totals. ops is the array's
// measured-window I/O count.
func (t *tracer) layerStats(from string, ops int64) {
	if t == nil {
		return
	}
	t.acc = t.acc.plus(t.snaps[len(t.snaps)-1].Counts.minus(t.snapshot(from)))
	t.accOps += ops
	if t.obs != nil {
		for _, rec := range t.obs.Records() {
			if rec.Kind != obs.RecSpanBegin {
				continue
			}
			switch rec.Layer {
			case obs.LayerNVMe:
				t.nvmeSpans++
				if obs.Op(rec.Sub) == obs.OpWrite && len(t.cmdSizes) < 4096 {
					t.cmdSizes = append(t.cmdSizes, rec.Arg1)
				}
			case obs.LayerBIZA:
				t.arraySpans++
			}
		}
	}
	d, n := t.acc, float64(t.accOps)
	t.vals["core.gc_events_per_kop"] = float64(d.CoreGC) * 1000 / n
	t.vals["core.inplace_hits_per_kop"] = float64(d.CoreInPlace) * 1000 / n
	t.vals["core.busy_collisions"] = float64(d.CoreCollisions)
	t.vals["nvme.reordered_per_op"] = float64(d.NVMeReordered) / n
	t.vals["nvme.retries"] = float64(d.NVMeRetries)
	if d.ZNSAbsorbed+d.ZNSProgrammed > 0 {
		t.vals["zns.absorbed_ratio"] = float64(d.ZNSAbsorbed) / float64(d.ZNSAbsorbed+d.ZNSProgrammed)
	}
	if d.UserBytes > 0 {
		t.vals["zns.erases_per_GB"] = float64(d.ZNSErases) / (float64(d.UserBytes) / 1e9)
	}
	t.vals["zns.buf_copied_bytes_per_op"] = float64(d.ZNSBufCopied) / n
	t.vals["buf.gets_per_op"] = float64(d.BufGets) / n
	if d.BufGets > 0 {
		t.vals["buf.miss_ratio"] = float64(d.BufMisses) / float64(d.BufGets)
	}
	t.vals["buf.copied_bytes_per_op"] = float64(d.BufCopiedBytes) / n
	if t.arraySpans > 0 {
		t.vals["nvme.cmds_per_op"] = float64(t.nvmeSpans) / float64(t.arraySpans)
	}
}

// gridCell adds one baseline grid cell's layer counts.
func (t *tracer) gridCell(p *stack.Platform) {
	if t == nil {
		return
	}
	for _, d := range p.FTLDevs {
		t.vals["ftl.gc_events"] += float64(d.GCEvents())
	}
	// dm-zap is the front end of dmzap+RAIZN and each member of mdraid+dmzap.
	for _, d := range append([]blockdev.Device{p.Dev}, p.Members()...) {
		if z, ok := d.(*dmzap.Adapter); ok {
			t.vals["dmzap.gc_events"] += float64(z.GCEvents())
		}
	}
}

// volumeStats sets the tenant volumes' QoS metrics. share_error compares
// each unthrottled tenant's share of bytes with its share of weight.
func (t *tracer) volumeStats(tenants []*tenantRef) {
	if t == nil {
		return
	}
	var ops, stalls uint64
	var maxQD int
	var bytes, weights float64
	for i, tn := range tenants {
		st := tn.v.Stats()
		ops += st.Ops
		stalls += st.ThrottleStalls
		maxQD = max(maxQD, st.MaxQueueDepth)
		if i != tenantLimited {
			bytes += float64(st.Bytes)
			weights += float64(tenantWeights[i])
		}
	}
	var worst float64
	for i, tn := range tenants {
		if i == tenantLimited {
			continue
		}
		e := float64(tn.v.Stats().Bytes)/bytes - float64(tenantWeights[i])/weights
		worst = max(worst, e, -e)
	}
	t.vals["volume.throttle_stalls_per_kop"] = float64(stalls) * 1000 / float64(ops)
	t.vals["volume.max_queue_depth"] = float64(maxQD)
	t.vals["volume.share_error"] = worst
}

// fleetStats sets the sharded fleet's metrics.
func (t *tracer) fleetStats(m *meter, sends int64, cpu, wall time.Duration, shards int) {
	if t == nil {
		return
	}
	t.vals["shard.sends_per_op"] = float64(sends) / float64(m.r.attempted)
	t.vals["shard.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(shards))
}

// timedDev wraps a block device so the traced run records a span around
// each synchronous submit call into it. The volume layer uses only the
// blockdev.Device methods, so the wrapper changes nothing it sees.
type timedDev struct {
	blockdev.Device
	tr   *tracer
	name string
}

func (d timedDev) Write(lba int64, n int, data []byte, done func(blockdev.WriteResult)) {
	id := d.tr.begin(d.name)
	d.Device.Write(lba, n, data, done)
	d.tr.end(id)
}

func (d timedDev) Read(lba int64, n int, done func(blockdev.ReadResult)) {
	id := d.tr.begin(d.name)
	d.Device.Read(lba, n, done)
	d.tr.end(id)
}

// wrap returns dev with submit spans named name in a traced round, dev
// itself otherwise.
func (t *tracer) wrap(dev blockdev.Device, name string) blockdev.Device {
	if t == nil {
		return dev
	}
	return timedDev{Device: dev, tr: t, name: name}
}

// write saves the spans and layer snapshots as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Spans        []span     `json:"spans"`
		DroppedSpans int64      `json:"dropped_spans"`
		Snapshots    []snapshot `json:"snapshots"`
	}{t.spans, t.dropped, t.snaps})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanSelfNs reports the mean self time of the spans named name.
func (t *tracer) spanSelfNs(name string) (float64, bool) {
	a := t.agg[name]
	if a == nil || a.n == 0 {
		return 0, false
	}
	return float64(a.self) / float64(a.n), true
}

// finish derives the span-based metrics once the round has ended.
func (t *tracer) finish(m *meter) {
	for _, layer := range []string{"core", "dmzap", "mdraid", "volume"} {
		if v, ok := t.spanSelfNs(layer + ".submit"); ok {
			t.vals[layer+".submit_ns"] = v
		}
	}
	attempted := float64(m.r.attempted)
	// Sharded rounds run their engines inside the shard group, where the
	// benchmark cannot count events, so m.events stays 0 there.
	if a := t.agg["step"]; a != nil && m.events > 0 {
		t.vals["sim.events_per_op"] = float64(m.events) / attempted
		t.vals["sim.pending_mean"] = float64(m.pending) / float64(m.events)
		t.vals["sim.ns_per_event"] = float64(a.ns) / float64(m.events)
	}
	t.vals["harness.ns_per_op"] = float64(t.harnNs) / attempted
	t.vals["run.op_fail_ratio"] = float64(m.r.failed) / attempted
	for kind, v := range t.setups {
		t.vals["stack.setup_ms."+kind] = median(v)
		t.vals["stack.setup_alloc_mb."+kind] = median(t.setupMB[kind])
	}
}
