package main

import (
	"encoding/binary"
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
)

// biza_gc_randwrite: BIZA on the small GC geometry of the fig15
// experiment (48 zones of 2 MiB per member, 256 KiB ZRWA), preconditioned
// with two passes of random 32 KiB overwrites over 60% of capacity so
// garbage collection fires throughout, then random 4 KiB and 64 KiB
// writes at QD32 with pooled payloads (blockdev.BufWriter), so erasure
// and buf do real work.
const (
	gcZones       = 48
	gcZoneBlocks  = 512 // 2 MiB zones
	gcZRWABlocks  = 64  // 256 KiB ZRWA
	gcSpanPercent = 60
	gcDepth       = 32
	// One write in gcLargeOneIn is 64 KiB, the rest 4 KiB: the median then
	// falls inside the 4 KiB population rather than on the boundary
	// between the two sizes, where it would jump between seeds.
	gcLargeOneIn = 4
	gcHorizon    = 300 * sim.Millisecond
	// Each round runs gcArrays independent arrays one after the other. GC
	// dynamics differ from array to array under the same load, so one
	// array per round would make the round's results depend strongly on
	// the seed.
	gcArrays    = 2
	gcShortHorz = 10 * sim.Millisecond
)

func gcOptions(seed uint64) stack.Options {
	z := stack.BenchZNS(gcZones)
	z.ZoneBlocks = gcZoneBlocks
	z.ZRWABlocks = gcZRWABlocks
	return stack.Options{ZNS: z, FTL: stack.BenchFTL(512), Seed: seed}
}

func roundGCRandWrite(rc roundCfg) (*round, error) {
	m := startRound(rc.tr)
	lat := &latencies{}
	var wa metrics.WriteAmp
	for k := 0; k < gcArrays; k++ {
		if k > 0 {
			m.resumeSetup()
		}
		if err := runGCArray(rc, m, k, lat, &wa); err != nil {
			return nil, err
		}
	}
	lat.fill(&m.r.sim)
	m.r.sim.FlashWA = wa.Factor()
	return m.done(), nil
}

// runGCArray constructs array k of the round, preconditions it, measures
// it, flushes and checks it, adding its latencies and flash accounting to
// the round's.
func runGCArray(rc roundCfg, m *meter, k int, all *latencies, wa *metrics.WriteAmp) error {
	tr := rc.tr
	arr := fmt.Sprint(k)
	sp := tr.begin("construct")
	opts := gcOptions(sim.DeriveSeed(platformSeed, "gc/stack", arr))
	opts.Trace = tr.obsTrace()
	p, err := stack.New(stack.KindBIZA, opts)
	tr.end(sp)
	if err != nil {
		return err
	}
	m.setupDone()
	tr.setup("biza", m, 1)
	tr.counts("constructed", p)
	r := m.r
	eng := p.Eng
	bw := p.Dev.(blockdev.BufWriter)
	pool := bw.Pool()
	bs := p.Dev.BlockSize()
	span := p.Dev.Blocks() * gcSpanPercent / 100
	rng := sim.NewRNG(sim.DeriveSeed(rc.seed, "gc/workload", arr))
	start := eng.Now()

	outstanding := 0
	// write submits one pooled write. Each block of the payload is stamped
	// with its address; the rest keeps whatever the pool's buffer held,
	// which the flash model does not retain (StoreData is off) and the
	// erasure coder encodes all the same.
	write := func(lba int64, n int, done func(blockdev.WriteResult)) {
		h := tr.harness()
		b := pool.Get(n*bs, 0)
		dst := b.Bytes()
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(dst[i*bs:], uint64(lba)+uint64(i))
		}
		tr.harnessDone(h)
		id := tr.begin("core.submit")
		bw.WriteBuf(lba, n, b, done)
		tr.end(id)
		outstanding++
		r.attempted++
	}

	// Precondition: two passes of random 32 KiB overwrites at QD32.
	sp = tr.begin("precondition")
	left := int(span/8) * 2
	var pre func(blockdev.WriteResult)
	pre = func(res blockdev.WriteResult) {
		outstanding--
		if res.Err != nil {
			r.failed++
		}
		if left > 0 {
			left--
			write(rng.Int63n(span/8)*8, 8, pre)
		}
	}
	for i := 0; i < gcDepth && left > 0; i++ {
		left--
		write(rng.Int63n(span/8)*8, 8, pre)
	}
	m.pump(eng)
	tr.end(sp)
	p.ResetAccounting()
	tr.counts("preconditioned", p)

	// Measure: random 4 KiB or 64 KiB writes, closed loop at QD32, issued
	// until the virtual horizon.
	horizon := gcHorizon
	if rc.short {
		horizon = gcShortHorz
	}
	lat := &latencies{}
	mStart := eng.Now()
	end := mStart + horizon
	last := mStart
	sp = tr.begin("measure")
	var issue func()
	issue = func() {
		n := 1
		if rng.Intn(gcLargeOneIn) == 0 {
			n = 16
		}
		lba := rng.Int63n(span/int64(n)) * int64(n)
		write(lba, n, func(res blockdev.WriteResult) {
			outstanding--
			if res.Err != nil {
				r.failed++
			}
			lat.record(res.Err, res.Latency, n*bs)
			last = eng.Now()
			if eng.Now() < end {
				issue()
			}
		})
	}
	for i := 0; i < gcDepth; i++ {
		issue()
	}
	m.pump(eng)
	tr.end(sp)
	tr.counts("measured", p)

	sp = tr.begin("flush")
	p.BIZA.Flush()
	m.pump(eng)
	tr.end(sp)
	tr.counts("flushed", p)

	sp = tr.begin("verify")
	if outstanding != 0 {
		r.fail("%d writes never completed", outstanding)
	}
	checkPool(r, p)
	checkZones(r, p.ZNSDevs)
	tr.end(sp)

	r.sim.Window += last - mStart
	r.sim.Advanced += eng.Now() - start
	wa.Add(p.FlashWriteAmp())
	tr.layerStats("preconditioned", lat.count())
	all.merge(lat)
	return nil
}
