package main

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
)

// baseline_fio_grid: the fig10 write grid for the baselines only. Every
// cell builds a fresh platform at the default BenchZNS(128)/BenchFTL(2048)
// geometry and writes seq or rand, 4 KiB or 64 KiB, at QD32 over half the
// capacity with nil payloads, as fig10 does. Without garbage collection the
// cells' timing does not depend on the addresses written, so --seed also
// seeds the platforms here (device jitter), unlike the other workloads.
var gridKinds = []struct {
	kind stack.Kind
	name string // metric-safe spelling of the kind
}{
	{stack.KindDmzapRAIZN, "dmzap_raizn"},
	{stack.KindMdraidDmzap, "mdraid_dmzap"},
	{stack.KindMdraidConvSSD, "mdraid_convssd"},
}

const (
	gridDepth     = 32
	gridHorizon   = 12 * sim.Millisecond
	gridShortHorz = 2 * sim.Millisecond
)

// gridTop names the layer a grid cell's block front end belongs to.
func gridTop(k stack.Kind) string {
	if k == stack.KindDmzapRAIZN {
		return "dmzap"
	}
	return "mdraid"
}

func roundBaselineGrid(rc roundCfg) (*round, error) {
	tr := rc.tr
	m := startRound(tr)
	r := m.r
	m.setupDone() // set-up time accrues per cell below
	horizon := gridHorizon
	if rc.short {
		horizon = gridShortHorz
	}
	lat := &latencies{}
	var wa metrics.WriteAmp
	for _, gk := range gridKinds {
		for _, pattern := range []string{"seq", "rand"} {
			for _, sizeKB := range []int{4, 64} {
				cell := fmt.Sprintf("%s/%s/%d", gk.name, pattern, sizeKB)
				m.resumeSetup()
				sp := tr.begin("construct")
				p, err := stack.New(gk.kind, stack.Options{Seed: sim.DeriveSeed(rc.seed, "grid", cell)})
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				m.setupDone()
				tr.setup(gk.name, m, 1)
				runGridCell(rc, m, p, gk.kind, pattern == "seq", sizeKB*1024/p.Dev.BlockSize(), horizon, lat, cell)
				wa.Add(p.FlashWriteAmp())
				checkZones(r, p.ZNSDevs)
				tr.gridCell(p)
			}
		}
	}
	lat.fill(&r.sim)
	r.sim.FlashWA = wa.Factor()
	return m.done(), nil
}

// runGridCell drives one fio-style cell: a closed loop at QD32 until the
// virtual horizon, then a drain.
func runGridCell(rc roundCfg, m *meter, p *stack.Platform, kind stack.Kind, seq bool, n int,
	horizon sim.Time, lat *latencies, cell string) {
	tr := rc.tr
	r := m.r
	eng := p.Eng
	dev := p.Dev
	bs := dev.BlockSize()
	span := dev.Blocks() / 2
	slots := span / int64(n)
	rng := sim.NewRNG(sim.DeriveSeed(rc.seed, "grid/wl", cell))
	var cursor int64
	start := eng.Now()
	end := start + horizon
	last := start
	outstanding := 0
	layer := gridTop(kind) + ".submit"
	sp := tr.begin("measure")
	var issue func()
	issue = func() {
		h := tr.harness()
		var lba int64
		if seq {
			lba = cursor * int64(n)
			cursor = (cursor + 1) % slots
		} else {
			lba = rng.Int63n(slots) * int64(n)
		}
		tr.harnessDone(h)
		outstanding++
		r.attempted++
		id := tr.begin(layer)
		dev.Write(lba, n, nil, func(res blockdev.WriteResult) {
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
		tr.end(id)
	}
	for i := 0; i < gridDepth; i++ {
		issue()
	}
	m.pump(eng)
	tr.end(sp)
	if outstanding != 0 {
		r.fail("%s: %d writes never completed", cell, outstanding)
	}
	r.sim.Window += last - start
	r.sim.Advanced += eng.Now() - start
}
