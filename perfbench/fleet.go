package main

import (
	"fmt"
	"syscall"
	"time"

	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
)

// fleet_sharded: the fleet shape driven by the benchmark. Small BIZA
// arrays (16 zones per member) are partitioned round-robin over a
// sim.ShardGroup; closed-loop clients hop between arrays by zipf through
// Shard.Send, with 40% writes of 32 KiB. The same inputs must simulate
// bit-identically at any shard count.
const (
	fleetArrays    = 16
	fleetClients   = 256
	fleetZones     = 16
	fleetOpBlocks  = 8    // 32 KiB
	fleetSpan      = 2048 // per-array working set, blocks
	fleetTheta     = 0.9
	fleetWritePct  = 40
	fleetFabricLat = 20 * sim.Microsecond // hop latency = barrier window
	fleetHorizon   = 40 * sim.Millisecond
	fleetShortHorz = 4 * sim.Millisecond
	fleetChunk     = 64 * fleetFabricLat // group advance between heap samples
)

type fleetArray struct {
	shard    *sim.Shard
	p        *stack.Platform
	next     int64 // next sequential write address, wrapping over the span
	written  int64 // high-water mark of written addresses
	lat      *latencies
	last     sim.Time
	inflight int
}

type fleetClient struct {
	id   int64
	rng  *sim.RNG
	zipf *sim.ZipfGen
}

func roundFleet(rc roundCfg) (*round, error) {
	tr := rc.tr
	shards := rc.shards
	if shards < 1 {
		shards = 1
	}
	m := startRound(tr)
	sp := tr.begin("construct")
	g := sim.NewShardGroup(shards, fleetFabricLat)
	arrays := make([]*fleetArray, fleetArrays)
	for i := range arrays {
		sh := g.Shard(i % shards)
		p, err := stack.NewOn(sh.Engine(), stack.KindBIZA, stack.Options{
			ZNS:  stack.BenchZNS(fleetZones),
			Seed: sim.DeriveSeed(platformSeed, "fleet/stack", fmt.Sprint(i)),
		})
		if err != nil {
			return nil, err
		}
		arrays[i] = &fleetArray{shard: sh, p: p, lat: &latencies{}}
	}
	tr.end(sp)
	m.setupDone()
	tr.setup("biza", m, fleetArrays)
	r := m.r
	bs := arrays[0].p.Dev.BlockSize()
	horizon := fleetHorizon
	if rc.short {
		horizon = fleetShortHorz
	}

	// Per-shard tallies: each is touched only by its own shard's goroutine.
	attempted := make([]int64, shards)
	failed := make([]int64, shards)
	sends := make([]int64, shards)
	var visit func(c *fleetClient, a *fleetArray)
	visit = func(c *fleetClient, a *fleetArray) {
		eng := a.shard.Engine()
		if eng.Now() >= horizon {
			return // client retires
		}
		sid := a.shard.ID()
		attempted[sid]++
		a.inflight++
		finish := func(err error, latency sim.Time) {
			a.inflight--
			if err != nil {
				failed[sid]++
			}
			a.lat.record(err, latency, fleetOpBlocks*bs)
			a.last = eng.Now()
			b := arrays[c.zipf.Next()]
			sends[sid]++
			a.shard.Send(b.shard.ID(), eng.Now()+fleetFabricLat, c.id, func() { visit(c, b) })
		}
		if a.written == 0 || c.rng.Intn(100) < fleetWritePct {
			lba := a.next
			a.next = (a.next + fleetOpBlocks) % fleetSpan
			if a.written < fleetSpan {
				a.written = lba + fleetOpBlocks
			}
			a.p.Dev.Write(lba, fleetOpBlocks, nil, func(res blockdev.WriteResult) { finish(res.Err, res.Latency) })
			return
		}
		lba := c.rng.Int63n(a.written - fleetOpBlocks + 1)
		a.p.Dev.Read(lba, fleetOpBlocks, func(res blockdev.ReadResult) { finish(res.Err, res.Latency) })
	}
	for i := 0; i < fleetClients; i++ {
		rng := sim.NewRNG(sim.DeriveSeed(rc.seed, "fleet/client", fmt.Sprint(i)))
		c := &fleetClient{id: int64(i), rng: rng, zipf: sim.NewZipfGen(rng, fleetArrays, fleetTheta)}
		a := arrays[c.zipf.Next()]
		at := fleetFabricLat + sim.Time(c.rng.Intn(int(8*fleetFabricLat)))
		g.Send(a.shard.ID(), at, c.id, func() { visit(c, a) })
	}

	sp = tr.begin("run")
	var ru0 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // CPU time is a diagnostic; zero on failure
	wall0 := time.Now()
	for g.Now() < horizon {
		g.Run(min(g.Now()+fleetChunk, horizon))
		m.sampleHeap()
	}
	drainLimit := horizon + 100*sim.Millisecond
	for g.Now() < drainLimit && g.Pending() > 0 {
		g.Drain(min(g.Now()+fleetChunk, drainLimit))
		m.sampleHeap()
	}
	wall := time.Since(wall0)
	var ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	tr.end(sp)
	if g.Pending() != 0 {
		r.fail("fleet: shard group did not quiesce after the horizon")
	}

	sp = tr.begin("flush")
	for _, a := range arrays {
		a.p.BIZA.Flush()
	}
	// Flush programs run on each array's own engine; the shards are idle
	// here, so the coordinator may drive them directly.
	for i := 0; i < shards; i++ {
		g.Shard(i).Engine().Run()
	}
	tr.end(sp)

	sp = tr.begin("verify")
	all := &latencies{}
	var wa metrics.WriteAmp
	var window sim.Time
	for i, a := range arrays {
		if a.inflight != 0 {
			r.fail("fleet: array %d has %d I/Os that never completed", i, a.inflight)
		}
		checkPool(r, a.p)
		checkZones(r, a.p.ZNSDevs)
		all.merge(a.lat)
		wa.Add(a.p.FlashWriteAmp())
		window = max(window, a.last)
	}
	tr.end(sp)
	for i := 0; i < shards; i++ {
		r.attempted += attempted[i]
		r.failed += failed[i]
	}
	all.fill(&r.sim)
	r.sim.Window = window
	r.sim.Advanced = g.Now()
	r.sim.FlashWA = wa.Factor()
	var nsends int64
	for _, s := range sends {
		nsends += s
	}
	cpu := time.Duration(ru1.Utime.Nano()+ru1.Stime.Nano()-ru0.Utime.Nano()-ru0.Stime.Nano()) * time.Nanosecond
	tr.fleetStats(m, nsends, cpu, wall, shards)
	return m.done(), nil
}
