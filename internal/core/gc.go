package core

import (
	"slices"

	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// maybeStartGC launches a device's collector when its free-zone pool drops
// below the low watermark (or immediately when user work is stalled at the
// cliff).
func (c *Core) maybeStartGC(ds *devState) {
	if ds.gcRunning {
		return
	}
	if len(ds.freeZones) >= c.cfg.GCLowWater && ds.stalled.len() == 0 {
		return
	}
	ds.gcRunning = true
	c.eng.AfterEvent(0, ds, 0, 0)
}

// Fire runs the device's next collector step.
func (ds *devState) Fire(_, _ sim.Time) { ds.c.gcStep(ds) }

// bindGC binds the collector's completions once per device state. One
// collection runs per device at a time (gcRunning), so its state lives in
// the devState itself.
func (ds *devState) bindGC() {
	ds.gcStripeFn = func() {
		ds.gcLeft--
		if ds.gcLeft == 0 {
			ds.q.Reset(ds.gcVictim, ds.gcResetFn)
		}
	}
	ds.gcResetFn = func(err error) {
		c := ds.c
		c.noteIOError(ds.id, err)
		for _, t := range ds.gcBusy {
			t.release()
		}
		clear(ds.gcBusy)
		ds.gcBusy = ds.gcBusy[:0]
		ds.freeZone(ds.gcVictim)
		c.eng.AfterEvent(0, ds, 0, 0)
	}
}

// gcStep collects one victim zone (§4.3's GC events): it dissolves every
// stripe that owns a slot — live or stale — in the victim, migrating the
// live chunks into GC-class stripes, then resets the victim. For the
// duration, the victim's guessed channel and the GC destination zones'
// guessed channels are tagged BUSY so pickZone steers user writes away.
func (c *Core) gcStep(ds *devState) {
	if len(ds.freeZones) >= c.cfg.GCHighWater && ds.stalled.len() == 0 {
		ds.gcRunning = false
		return
	}
	victim := ds.pickVictim()
	if victim < 0 {
		ds.gcRunning = false
		// Nothing collectible: release any stalled writers (no deadlock).
		for ds.stalled.len() > 0 {
			c.appendChunk(ds.stalled.pop())
		}
		return
	}
	c.gcEvents++
	vzs := ds.zones[victim]
	if c.tr != nil {
		c.tr.Event(int64(c.eng.Now()), obs.LayerBIZA, obs.EvGCVictim, ds.id, victim,
			vzs.valid, int64(len(ds.freeZones)), 0)
	}

	// Tag BUSY: the victim's channel (reads + erase) and the current GC
	// destination zones on every device (migration programs).
	// BUSY bookkeeping runs regardless of the avoidance toggle (the
	// ablation disables only the steering in pickZone), so collision
	// diagnostics compare like for like. The tags drop when the victim
	// resets (gcResetFn).
	ds.gcVictim = victim
	ds.gcBusy = append(ds.gcBusy, ds.markBusy(victim))
	for _, d := range c.devs {
		for _, zs := range d.groups[classGC] {
			if zs != nil && !zs.sealedF {
				ds.gcBusy = append(ds.gcBusy, d.markBusy(zs.id))
			}
		}
	}

	// Collect the owning stripes of every slot in the victim, in
	// ascending stripe order.
	sns := ds.gcSNs[:0]
	for off := int64(0); off < vzs.wpAlloc; off++ {
		if sn := vzs.rmapStripe.get(off); sn >= 0 {
			sns = append(sns, sn)
		}
		if sn := vzs.rmapSN.get(off); sn >= 0 {
			sns = append(sns, sn)
		}
	}
	slices.Sort(sns)
	sns = slices.Compact(sns)
	ds.gcSNs = sns

	ds.gcLeft = len(sns)
	if ds.gcLeft == 0 {
		ds.q.Reset(victim, ds.gcResetFn)
		return
	}
	for _, sn := range sns {
		c.dissolveStripe(sn, ds.gcStripeFn)
	}
}

// dissolveStripe migrates every live chunk of a stripe into GC-class
// stripes and releases the old stripe; done fires once every live chunk
// has moved. Its live blocks are pinned for the duration so in-place
// updates cannot race the migration reads.
func (c *Core) dissolveStripe(sn int64, done func()) {
	d := c.dissolves.get()
	if d == nil {
		d = &dissolveOp{c: c}
	}
	d.sn, d.done = sn, done
	c.dissolve(d)
}

func (c *Core) dissolve(d *dissolveOp) {
	sn := d.sn
	se := c.smt[sn]
	if se == nil {
		c.finishDissolve(d)
		return
	}
	// Claim the stripe: later rewrites of its blocks append elsewhere (the
	// bmt guard in migrate() then skips them). An in-place update already in
	// flight mutates slot content without remapping — invisible to that
	// guard — so wait for it to finish before capturing the live set.
	se.dissolving = true
	if se.ipBusy {
		d.ipWait = se
		se.refs++
		se.ipq.push(d)
		return
	}
	if !se.sealed {
		// The stripe is still open: seal it short. Its partial parity is
		// the valid parity of the chunks written so far.
		se.sealed = true
		for class := Class(0); class < numClasses; class++ {
			if c.open[class] == se {
				c.open[class] = nil
			}
		}
	}
	var head, tail *migrant
	n := 0
	for i, lbn := range se.lbns {
		if lbn >= 0 && se.chunks[i].dev >= 0 {
			m := c.getMigrant(d, lbn, se.chunks[i])
			if tail == nil {
				head = m
			} else {
				tail.next = m
			}
			tail = m
			n++
			c.gcPinned[lbn] = true
		}
	}
	if n == 0 {
		if se.pending == 0 {
			c.releaseStripe(sn, se)
		}
		c.finishDissolve(d)
		return
	}
	d.remaining = n
	for m := head; m != nil; {
		next := m.next
		m.next = nil
		if c.failed[m.p.dev] {
			// Source member is gone (rebuild path): reconstruct the chunk
			// from the stripe's survivors instead of reading it.
			c.reconstructChunk(m.lbn, m, 0)
		} else {
			c.devs[m.p.dev].q.Read(m.p.zone, m.p.off, 1, m.readFn)
		}
		m = next
	}
}

// read completes the migration read of the chunk.
func (m *migrant) read(r zns.ReadResult) {
	c := m.c
	if r.Err != nil {
		c.noteIOError(m.p.dev, r.Err)
		if storerr.Reconstructable(r.Err) {
			// The source member died (or rotted) under the read:
			// rebuild the chunk from the survivors instead.
			c.reconstructChunk(m.lbn, m, 0)
			return
		}
	}
	m.migrate(r.Data)
}

// reconstructed implements reconSink for a chunk rebuilt from parity.
func (m *migrant) reconstructed(_ int64, data []byte, err error) {
	if err != nil {
		m.finish()
		return
	}
	m.migrate(data)
}

// migrate rewrites the chunk into a GC-class stripe. The block may have
// been rewritten while the read was in flight (pinning stops in-place
// updates, but a fresh append can still supersede it).
func (m *migrant) migrate(data []byte) {
	c := m.c
	if cur, ok := c.bmt[m.lbn]; !ok || cur.pa != m.p {
		m.finish()
		return
	}
	c.gcMigrated += uint64(c.blockSize)
	c.writeChunk(c.newChunk(m.lbn, data, nil, classGC, zns.TagGCData, m.writeFn))
}

func (m *migrant) written(error) { m.finish() }

// finish recycles the migrant and counts it out of its dissolution. Once
// all live chunks are rehomed, the old stripe has died through the
// invalidate() calls of the migrations; if it still lingers (pending
// completions), it is released explicitly once safe.
func (m *migrant) finish() {
	c, d, lbn := m.c, m.d, m.lbn
	m.d = nil
	c.migrants.put(m)
	delete(c.gcPinned, lbn)
	d.remaining--
	if d.remaining > 0 {
		return
	}
	if se := c.smt[d.sn]; se != nil && se.valid == 0 && se.pending == 0 {
		c.releaseStripe(d.sn, se)
	}
	c.finishDissolve(d)
}
