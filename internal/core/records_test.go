package core

// Record-lifetime coverage: every parking and retry path of the write
// flow runs with payloads on, then the test checks that each acknowledged
// write reads back, that every refcounted payload came home, and that
// every completion record is back on its free list. A record recycled
// while one of its completions is still pending shows up here as a lost
// or doubled acknowledgment, a wrong read, a "recycled twice" panic, or a
// free list with records outstanding at quiescence.

import (
	"bytes"
	"errors"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

// lifeHarness drives one core with pooled payloads and keeps a model of
// the last acknowledged stamp of every block.
type lifeHarness struct {
	t     *testing.T
	eng   *sim.Engine
	c     *Core
	model map[int64]byte
	acks  int // acknowledgments outstanding

	// zoneFullOK tolerates the known in-place/FINISH race: a zone can be
	// finished while an in-place update's reads are in flight, and the
	// update's writes then fail with zns.ErrZoneFull. Such a write is
	// acknowledged with that error; its blocks leave the model until
	// rewritten. Any other error still fails the test.
	zoneFullOK bool
	zoneFull   int
}

// stampBlock is the content of block lba written with stamp.
func stampBlock(lba int64, stamp byte, bs int) []byte {
	return bytes.Repeat([]byte{stamp ^ byte(lba*7)}, bs)
}

// write submits an asynchronous WriteBuf of n blocks stamped with stamp;
// then, if set, runs inside the acknowledgment. Concurrent writes must not
// overlap, so the model stays exact.
func (h *lifeHarness) write(lba int64, n int, stamp byte, then func()) {
	bs := h.c.blockSize
	b := h.c.pool.Get(n*bs, 0)
	for i := 0; i < n; i++ {
		copy(b.Bytes()[i*bs:], stampBlock(lba+int64(i), stamp, bs))
	}
	h.acks++
	acked := false
	h.c.WriteBuf(lba, n, b, func(r blockdev.WriteResult) {
		if acked {
			h.t.Fatalf("write %d+%d acknowledged twice", lba, n)
		}
		acked = true
		h.acks--
		switch {
		case r.Err == nil:
			for i := 0; i < n; i++ {
				h.model[lba+int64(i)] = stamp
			}
		case h.zoneFullOK && errors.Is(r.Err, zns.ErrZoneFull):
			h.zoneFull++
			for i := 0; i < n; i++ {
				delete(h.model, lba+int64(i))
			}
		default:
			h.t.Fatalf("write %d+%d: %v", lba, n, r.Err)
		}
		if then != nil {
			then()
		}
	})
}

// run drains the engine, calling probe after every event; it reports
// whether probe ever held.
func (h *lifeHarness) run(probe func() bool) bool {
	hit := false
	for h.eng.Step() {
		if probe != nil && !hit && probe() {
			hit = true
		}
	}
	if h.acks != 0 {
		h.t.Fatalf("%d writes never acknowledged", h.acks)
	}
	return hit
}

// churn runs a closed loop of depth clients issuing total random,
// non-overlapping writes of 1-4 blocks over the first span blocks; each
// acknowledgment submits the next write from inside the completion.
func (h *lifeHarness) churn(seed uint64, span int64, depth, total int, probe func() bool) bool {
	rng := sim.NewRNG(seed)
	busy := map[int64]bool{}
	issued := 0
	var issue func()
	issue = func() {
		for issued < total {
			n := 1 + rng.Intn(4)
			lba := rng.Int63n(span - int64(n))
			free := true
			for i := lba; i < lba+int64(n); i++ {
				free = free && !busy[i]
			}
			if !free {
				continue
			}
			for i := lba; i < lba+int64(n); i++ {
				busy[i] = true
			}
			issued++
			h.write(lba, n, byte(issued), func() {
				for i := lba; i < lba+int64(n); i++ {
					delete(busy, i)
				}
				issue()
			})
			return
		}
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	return h.run(probe)
}

// verify reads every modeled block back and checks record and payload
// quiescence.
func (h *lifeHarness) verify() {
	t, c := h.t, h.c
	t.Helper()
	for lba, stamp := range h.model {
		r := rsync(h.eng, c, lba, 1)
		if r.Err != nil {
			t.Fatalf("read %d: %v", lba, r.Err)
		}
		if !bytes.Equal(r.Data, stampBlock(lba, stamp, c.blockSize)) {
			t.Fatalf("read %d: content differs from the last acknowledged write (stamp %d)", lba, stamp)
		}
	}
	c.Flush()
	h.eng.Run()
	if live := c.pool.Live(); live != 0 {
		t.Fatalf("%d refcounted payloads still held at quiescence", live)
	}
	for _, l := range []struct {
		name string
		out  int
	}{
		{"userWrite", c.userWrites.out}, {"chunkOp", c.chunkOps.out},
		{"dispatchOp", c.dispatches.out}, {"dissolveOp", c.dissolves.out},
		{"migrant", c.migrants.out}, {"reconOp", c.recons.out},
		{"readOp", c.reads.out},
	} {
		if l.out != 0 {
			t.Errorf("%d %s records outstanding at quiescence", l.out, l.name)
		}
	}
	if c.stripes.out != len(c.smt) {
		t.Errorf("%d stripe records outstanding, %d stripes mapped", c.stripes.out, len(c.smt))
	}
	for sn, se := range c.smt {
		if se.refs != 0 || se.ipBusy || se.ipq.len() != 0 || se.parityBusy || se.waitHead != nil {
			t.Errorf("stripe %d not quiescent: refs=%d ipBusy=%v ipq=%d parityBusy=%v",
				sn, se.refs, se.ipBusy, se.ipq.len(), se.parityBusy)
		}
	}
	for _, ds := range c.devs {
		if ds.stalled.len() != 0 {
			t.Errorf("device %d: %d writes still stalled", ds.id, ds.stalled.len())
		}
	}
	if len(c.allocWaiters) != 0 {
		t.Errorf("%d writes still waiting for allocation", len(c.allocWaiters))
	}
}

// smallZones shrinks the members so GC and open-zone limits bite within a
// few thousand writes. Churn spans stay at or below 60% of capacity: in
// this geometry the open zone groups hold much of the over-provisioning,
// and from about 70% GC stops making net progress (see ROADMAP.md).
func smallZones(maxOpen int) func(*Config, *[]zns.Config) {
	return func(cfg *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].NumZones = 24
			(*dcfgs)[i].ZoneBlocks = 64
			(*dcfgs)[i].MaxOpenZones = maxOpen
		}
		*cfg = DefaultConfig(24)
	}
}

// spareQueue builds a fresh replacement member for c.
func spareQueue(t *testing.T, eng *sim.Engine, seed uint64) *nvme.Queue {
	t.Helper()
	dc := devConfig()
	dc.Seed = seed
	d, err := zns.New(eng, dc)
	if err != nil {
		t.Fatal(err)
	}
	return nvme.New(d, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: seed + 1})
}

// sealedStripe writes blocks [0, k) as one full stripe and returns it.
func sealedStripe(h *lifeHarness, stamp byte) *smtEntry {
	h.write(0, h.c.nData, stamp, nil)
	h.run(nil)
	se := h.c.smt[h.c.bmt[0].sn]
	if se == nil || !se.sealed {
		h.t.Fatal("setup: stripe of block 0 not sealed")
	}
	return se
}

func TestRecordLifetime(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config, *[]zns.Config)
		// drive runs the scenario and reports whether its target path
		// was taken.
		drive func(t *testing.T, h *lifeHarness) bool
	}{
		{
			name:   "free-zone stall",
			mutate: smallZones(12),
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				h.zoneFullOK = true
				return h.churn(1, c.Blocks()/2, 48, 6000, func() bool {
					for _, ds := range c.devs {
						if ds.stalled.len() > 0 {
							return true
						}
					}
					return false
				})
			},
		},
		{
			name:   "allocation waiters",
			mutate: smallZones(2*int(numClasses) + 1),
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				h.zoneFullOK = true
				return h.churn(1, c.Blocks()*6/10, 48, 6000, func() bool {
					return len(c.allocWaiters) > 0
				})
			},
		},
		{
			name: "in-place queue",
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				se := sealedStripe(h, 1)
				// Every rewrite after the first parks behind the stripe's
				// read-modify-write, and so does the dissolution.
				for i := 0; i < c.nData; i++ {
					h.write(int64(i), 1, byte(2+i), nil)
				}
				dissolved := false
				c.dissolveStripe(se.sn, func() { dissolved = true })
				parked := se.ipq.len() == c.nData
				h.run(nil)
				if !dissolved {
					t.Fatal("parked dissolution never completed")
				}
				return parked
			},
		},
		{
			name: "parity-slot relocation",
			mutate: func(cfg *Config, _ *[]zns.Config) {
				cfg.EnableSelector = false // every chunk joins the trivial stripe
			},
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				for lba := int64(0); lba < 4*int64(c.nData); lba += int64(c.nData) {
					h.write(lba, c.nData, 1, nil)
				}
				h.write(100, 1, 2, nil) // leaves the trivial stripe open
				h.run(nil)
				se := c.open[ClassTrivial]
				if se == nil {
					t.Fatal("setup: no open stripe")
				}
				// Replace the open stripe's parity member. The rebuild
				// dissolves one stripe per step, oldest first; an append
				// landing in the first gap finds its parity slot gone and
				// relocates it to the spare.
				before := se.parity[0]
				rebuilt := false
				c.ReplaceDevicePaced(before.dev, spareQueue(t, h.eng, 900), RebuildControl{
					StripesPerStep: 1, StepGap: sim.Millisecond,
				}, func(err error) {
					if err != nil {
						t.Errorf("rebuild: %v", err)
					}
					rebuilt = true
				})
				h.write(101, 1, 3, nil)
				moved := se.parity[0] != before
				h.run(nil)
				if !rebuilt {
					t.Fatal("rebuild never completed")
				}
				return moved
			},
		},
		{
			name: "member death mid-append",
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
					{Kind: fault.DeviceDeath, Dev: 1, AfterOps: 40},
				}}, 3)
				h.churn(3, 2000, 16, 400, nil)
				return c.DegradedWrites() > 0
			},
		},
		{
			name: "member death mid-RMW write",
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				sealedStripe(h, 1)
				// The old-chunk read is the member's last good command; its
				// in-place write then fails and is acknowledged degraded.
				attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
					{Kind: fault.DeviceDeath, Dev: c.bmt[0].pa.dev, AfterOps: 1},
				}}, 5)
				hits, degraded := c.InPlaceHits(), c.DegradedWrites()
				h.write(0, 1, 9, nil)
				h.run(nil)
				return c.InPlaceHits() == hits+1 && c.DegradedWrites() > degraded
			},
		},
		{
			name: "member death mid-RMW read",
			drive: func(t *testing.T, h *lifeHarness) bool {
				c := h.c
				sealedStripe(h, 1)
				// The member dies before the old-chunk read lands: the
				// update unwinds and re-homes the chunk by appending.
				old := c.bmt[0].pa
				attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
					{Kind: fault.DeviceDeath, Dev: old.dev, At: h.eng.Now() + 1},
				}}, 6)
				hits := c.InPlaceHits()
				h.write(0, 1, 9, nil)
				h.run(nil)
				return c.InPlaceHits() == hits+1 && c.bmt[0].pa != old
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			eng, c, _ := newCore(t, tt.mutate)
			c.pool.SetPoison(true)
			h := &lifeHarness{t: t, eng: eng, c: c, model: map[int64]byte{}}
			if !tt.drive(t, h) {
				t.Fatalf("scenario did not take the %s path", tt.name)
			}
			if h.zoneFull > 0 {
				t.Logf("%d writes failed with the known zone-full race", h.zoneFull)
			}
			h.verify()
		})
	}
}
