package main

import (
	"encoding/binary"
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/volume"
)

// tenant_mixed_rw: BIZA with payload retention (StoreData) behind a
// volume.Manager with QoS. Four tenant volumes with weights 1/1/2/4, the
// second rate-limited; each tenant runs a closed loop at QD8 of 70%
// reads and 30% writes of 4-16 KiB over zipf-skewed addresses. Every read
// is checked against a reference map of acknowledged writes.
const (
	tenantZones     = 32
	tenantBlocks    = 8192 // 32 MiB per volume
	tenantDepth     = 8
	tenantInflight  = 8 // WFQ dispatch window, small enough to backlog
	tenantTheta     = 0.9
	tenantReadPct   = 70
	tenantRate      = 40 << 20 // bytes/s cap of the rate-limited tenant
	tenantSlot      = 4        // blocks per zipf rank (largest op)
	tenantHorizon   = 60 * sim.Millisecond
	tenantShortHorz = 6 * sim.Millisecond
)

var tenantWeights = []int{1, 1, 2, 4}

// tenantLimited is the index of the rate-limited tenant.
const tenantLimited = 1

// tenantRef is one tenant volume and its reference map: for each block,
// the version of the last acknowledged write and of the last issued one
// (writes to a block never overlap, so issued >= acked and at most one
// version is in flight).
type tenantRef struct {
	v       *volume.Volume
	rng     *sim.RNG
	zipf    *sim.ZipfGen
	acked   []uint64
	issued  []uint64
	writing []bool
	ver     uint64
}

// tenantSlotOp is one closed-loop client slot; its buffers are reused once
// the previous operation has completed.
type tenantSlotOp struct {
	t     *tenantRef
	data  []byte
	ackAt [tenantSlot]uint64 // acked versions of the read range at issue
}

func roundTenantMixed(rc roundCfg) (*round, error) {
	tr := rc.tr
	m := startRound(tr)
	sp := tr.begin("construct")
	z := stack.BenchZNS(tenantZones)
	z.StoreData = true
	p, err := stack.New(stack.KindBIZA, stack.Options{ZNS: z, Seed: sim.DeriveSeed(platformSeed, "tenant/stack"),
		Trace: tr.obsTrace()})
	if err != nil {
		return nil, err
	}
	mgr := volume.New(p.Eng, tr.wrap(p.Dev, "core.submit"), volume.Config{MaxInflight: tenantInflight})
	tenants := make([]*tenantRef, len(tenantWeights))
	for i, w := range tenantWeights {
		q := volume.QoS{Weight: w}
		if i == tenantLimited {
			q.RateBytesPerSec = tenantRate
		}
		v, err := mgr.Open(fmt.Sprintf("t%d", i), volume.Options{Blocks: tenantBlocks, QoS: q})
		if err != nil {
			return nil, err
		}
		rng := sim.NewRNG(sim.DeriveSeed(rc.seed, "tenant", v.Name()))
		tenants[i] = &tenantRef{v: v, rng: rng, zipf: sim.NewZipfGen(rng, tenantBlocks/tenantSlot, tenantTheta),
			acked: make([]uint64, tenantBlocks), issued: make([]uint64, tenantBlocks), writing: make([]bool, tenantBlocks)}
	}
	tr.end(sp)
	m.setupDone()
	tr.setup("biza", m, 1)
	tr.counts("constructed", p)
	r := m.r
	eng := p.Eng
	bs := p.Dev.BlockSize()
	horizon := tenantHorizon
	if rc.short {
		horizon = tenantShortHorz
	}
	lat := &latencies{}
	start := eng.Now()
	end := start + horizon
	last := start
	outstanding := 0
	mismatches := 0

	sp = tr.begin("measure")
	var issue func(s *tenantSlotOp)
	issue = func(s *tenantSlotOp) {
		h := tr.harness()
		t := s.t
		n := 1 + t.rng.Intn(tenantSlot)
		lba := int64(t.zipf.Next() * tenantSlot)
		write := t.rng.Intn(100) >= tenantReadPct
		for i := 0; write && i < n; i++ {
			if t.writing[lba+int64(i)] {
				write = false // a write to this range is in flight: read it instead
			}
		}
		outstanding++
		r.attempted++
		finish := func(err error, latency sim.Time) {
			outstanding--
			if err != nil {
				r.failed++
			}
			lat.record(err, latency, n*bs)
			last = eng.Now()
			if eng.Now() < end {
				issue(s)
			}
		}
		if write {
			t.ver++
			for i := 0; i < n; i++ {
				b := lba + int64(i)
				t.writing[b] = true
				t.issued[b] = t.ver
				stampBlock(s.data[i*bs:(i+1)*bs], t.v.ID(), b, t.ver)
			}
			tr.harnessDone(h)
			id := tr.begin("volume.submit")
			t.v.Write(lba, n, s.data[:n*bs], func(res blockdev.WriteResult) {
				h := tr.harness()
				for i := 0; i < n; i++ {
					b := lba + int64(i)
					t.writing[b] = false
					if res.Err == nil {
						t.acked[b] = t.issued[b]
					}
				}
				tr.harnessDone(h)
				finish(res.Err, res.Latency)
			})
			tr.end(id)
			return
		}
		for i := 0; i < n; i++ {
			s.ackAt[i] = t.acked[lba+int64(i)]
		}
		tr.harnessDone(h)
		id := tr.begin("volume.submit")
		t.v.Read(lba, n, func(res blockdev.ReadResult) {
			h := tr.harness()
			if res.Err == nil {
				for i := 0; i < n; i++ {
					b := lba + int64(i)
					if !blockValid(res.Data[i*bs:(i+1)*bs], t.v.ID(), b, s.ackAt[i], t.issued[b]) {
						mismatches++
					}
				}
			}
			tr.harnessDone(h)
			finish(res.Err, res.Latency)
		})
		tr.end(id)
	}
	for _, t := range tenants {
		for i := 0; i < tenantDepth; i++ {
			issue(&tenantSlotOp{t: t, data: make([]byte, tenantSlot*bs)})
		}
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
		r.fail("%d tenant I/Os never completed", outstanding)
	}
	if mismatches != 0 {
		r.fail("volume: %d read blocks differ from the acknowledged-write reference", mismatches)
	}
	checkPool(r, p)
	checkZones(r, p.ZNSDevs)
	tr.end(sp)

	lat.fill(&r.sim)
	r.sim.Window = last - start
	r.sim.Advanced = eng.Now() - start
	wa := p.FlashWriteAmp()
	r.sim.FlashWA = wa.Factor()
	tr.layerStats("constructed", lat.count())
	tr.volumeStats(tenants)
	return m.done(), nil
}

// stampBlock fills one block with its identity: volume id, block address
// and write version, then a filler derived from the version.
func stampBlock(b []byte, vol int, lba int64, ver uint64) {
	binary.LittleEndian.PutUint64(b[0:], uint64(vol)<<48|uint64(lba))
	binary.LittleEndian.PutUint64(b[8:], ver)
	b[len(b)-1] = byte(ver)
}

// blockValid reports whether a read block holds a version the reference
// allows: the version acknowledged when the read was issued (zeros if
// never written) or a later one issued since.
func blockValid(b []byte, vol int, lba int64, ackedAtIssue, issued uint64) bool {
	id := binary.LittleEndian.Uint64(b[0:])
	ver := binary.LittleEndian.Uint64(b[8:])
	if id == 0 && ver == 0 && b[len(b)-1] == 0 {
		return ackedAtIssue == 0
	}
	return id == uint64(vol)<<48|uint64(lba) && b[len(b)-1] == byte(ver) &&
		ver >= ackedAtIssue && ver <= issued && ver > 0
}
