package core

import (
	"encoding/binary"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/cpumodel"
	"biza/internal/erasure"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// OOB record layout: kind(1) | lbn(8) | sn(8) | seq(8) | idx(1) = 26
// bytes, well inside the 64 B / 4 KiB quota (§4.1 uses 72 bits by omitting
// what this simulation cannot: the physical address is implicit on real
// flash, and the sequence number replaces the paper's implied write
// ordering). idx is the chunk's index within its stripe for data records
// (it selects the erasure-code coefficients on recovery) and the parity
// row for parity records.
const (
	oobKindData   = 1
	oobKindParity = 2
	oobLen        = 26
)

// encodeOOB fills a pooled record (recycled by the dispatch-done callbacks
// in zones.go once the device has copied it).
func (c *Core) encodeOOB(kind byte, lbn, sn int64, seq uint64, idx int) []byte {
	b := c.getOOB()
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], uint64(lbn))
	binary.LittleEndian.PutUint64(b[9:], uint64(sn))
	binary.LittleEndian.PutUint64(b[17:], seq)
	b[25] = byte(idx)
	return b
}

func decodeOOB(b []byte) (kind byte, lbn, sn int64, seq uint64, idx int, ok bool) {
	if len(b) < oobLen {
		return 0, 0, 0, 0, 0, false
	}
	kind = b[0]
	if kind != oobKindData && kind != oobKindParity {
		return 0, 0, 0, 0, 0, false
	}
	lbn = int64(binary.LittleEndian.Uint64(b[1:]))
	sn = int64(binary.LittleEndian.Uint64(b[9:]))
	seq = binary.LittleEndian.Uint64(b[17:])
	idx = int(b[25])
	return kind, lbn, sn, seq, idx, true
}

// Write implements blockdev.Device: the §4.1 write path. Each 4 KiB block
// is one chunk; parity is computed per dynamically formed stripe, with
// partial parity held and updated in place in the parity slot's ZRWA.
func (c *Core) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	c.writeCommon(lba, nblocks, data, nil, done)
}

// WriteBuf is Write for refcounted payloads drawn from Pool(): b.Bytes()
// must hold nblocks full blocks, and the call transfers exactly one
// reference. Every layer below takes references instead of copying, so
// the payload reaches the flash model's write buffer with zero copies.
// The caller must not mutate the buffer after submission — the device may
// read it until the last flash program retires, which is after the write
// acknowledgment.
func (c *Core) WriteBuf(lba int64, nblocks int, b *buf.Buf, done func(blockdev.WriteResult)) {
	c.writeCommon(lba, nblocks, b.Bytes(), b, done)
}

// writeCommon is the shared §4.1 write path. own, if non-nil, carries one
// transferred reference pinning data; each chunk takes a reference of its
// own before the original is dropped.
func (c *Core) writeCommon(lba int64, nblocks int, data []byte, own *buf.Buf, done func(blockdev.WriteResult)) {
	start := c.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > c.Blocks() {
		buf.Release(own)
		if done != nil {
			w := c.getUserWrite()
			w.start, w.err, w.done = start, blockdev.ErrOutOfRange, done
			c.eng.AfterEvent(sim.Microsecond, w, 0, 0)
		}
		return
	}
	bs := c.chunkBytes()
	c.userBytes += uint64(nblocks) * uint64(bs)
	w := c.getUserWrite()
	w.start, w.remaining, w.done = start, nblocks, done
	if c.tr != nil {
		w.traced = true
		w.span = c.tr.SpanBegin(int64(start), obs.LayerBIZA, obs.OpWrite, -1, -1, lba, int64(nblocks))
	}
	chunkDone := w.chunkFn
	for i := 0; i < nblocks; i++ {
		lbn := lba + int64(i)
		var payload []byte
		if data != nil {
			payload = data[int64(i)*bs : (int64(i)+1)*bs]
		}
		c.clock += uint64(bs)
		class := c.classify(lbn)
		buf.Retain(own) // one reference per chunk, consumed by writeChunk
		c.writeChunk(c.newChunk(lbn, payload, own, class, zns.TagUserData, chunkDone))
	}
	buf.Release(own) // drop the caller's transferred reference
}

// writeChunk stores one chunk. If the current copy still sits inside its
// zone's ZRWA window (and is not pinned by GC), it is updated in place —
// the paper's endurance fast path. Otherwise a new slot is allocated from
// the class's zone group and the chunk joins the class's open stripe.
func (c *Core) writeChunk(op *chunkOp) {
	if e, ok := c.bmt[op.lbn]; ok && !c.gcPinned[op.lbn] {
		if c.tryInPlace(op, e) {
			return
		}
	}
	c.appendChunk(op)
}

// tryInPlace updates a chunk and its stripe's parity inside their ZRWA
// windows. Only chunks of sealed stripes qualify: an open stripe's parity
// slot is owned by the append flow's accumulator. Returns false when
// either slot has been committed to flash. In-place read-modify-write of
// a stripe's parity serializes per stripe (lost-delta and same-slot
// reorder protection).
func (c *Core) tryInPlace(op *chunkOp, e bmtEntry) bool {
	if c.failed[e.pa.dev] {
		return false // degraded member: append a fresh copy elsewhere
	}
	ds := c.devs[e.pa.dev]
	zs := ds.zones[e.pa.zone]
	if zs == nil || zs.sealedF || e.pa.off < zs.devWP(c.zrwaBlocks) || !zs.slotDone(e.pa.off) {
		return false
	}
	se := c.smt[e.sn]
	if se == nil || !se.sealed || se.dissolving {
		return false
	}
	// Every parity slot must still be in its window with its append done.
	for _, ppa := range se.parity {
		if ppa.dev < 0 || c.failed[ppa.dev] {
			return false
		}
		pzs := c.devs[ppa.dev].zones[ppa.zone]
		if pzs == nil || pzs.sealedF || ppa.off < pzs.devWP(c.zrwaBlocks) || !pzs.slotDone(ppa.off) {
			return false
		}
	}
	// The chunk's index within the stripe selects the parity coefficients.
	chunkIdx := -1
	for i, p := range se.chunks {
		if p == e.pa {
			chunkIdx = i
			break
		}
	}
	if chunkIdx < 0 {
		return false
	}
	if op.payload != nil {
		if se.ipBusy {
			// The parked op keeps the chunk's reference and retries the
			// whole write when the queue drains.
			op.ipWait = se
			se.refs++
			se.ipq.push(op)
			return true
		}
		se.ipBusy = true
	}
	c.inplaceHits++
	c.seq++
	m := len(se.parity)
	se.refs++ // held until the last slot write completes
	op.se, op.e, op.ds, op.zs = se, e, ds, zs
	op.chunkIdx, op.seq, op.pending, op.err = chunkIdx, c.seq, 1+m, nil
	// Pin every slot NOW: the payload path reads before writing, and the
	// window must not slide past any of these offsets in the meantime.
	zs.ipOffsets[e.pa.off]++
	for _, ppa := range se.parity {
		c.devs[ppa.dev].zones[ppa.zone].ipOffsets[ppa.off]++
	}
	if op.payload == nil {
		// Performance mode: traffic without content.
		c.ipWriteData(op)
		for r := 0; r < m; r++ {
			c.ipWriteParity(op, r, nil)
		}
		return true
	}
	// Parity deltas need the old chunk and the old parities — all buffered
	// reads, since every slot is inside a ZRWA window. Scratch comes from
	// the unified pool; the read results (fresh heap copies from the
	// device model) are donated into it once folded.
	op.oldParity = c.getVec(m)
	op.reads = 1 + m
	ds.q.Read(e.pa.zone, e.pa.off, 1, op.ipReadFn)
	for r := 0; r < m; r++ {
		ppa := se.parity[r]
		c.devs[ppa.dev].q.Read(ppa.zone, ppa.off, 1, op.rowReadFn(r))
	}
	return true
}

// dataRead completes the in-place update's read of the old chunk.
func (op *chunkOp) dataRead(r zns.ReadResult) {
	if r.Err != nil {
		op.c.noteIOError(op.e.pa.dev, r.Err)
		if op.readErr == nil {
			op.readErr = r.Err
		}
	}
	op.oldData = r.Data
	op.c.afterReads(op)
}

// parityRead completes the in-place update's read of parity row r.
func (op *chunkOp) parityRead(r int, res zns.ReadResult) {
	if res.Err != nil {
		op.c.noteIOError(op.se.parity[r].dev, res.Err)
		if op.readErr == nil {
			op.readErr = res.Err
		}
	}
	op.oldParity[r] = res.Data
	op.c.afterReads(op)
}

// afterReads folds the parity deltas once every old slot has been read,
// then writes the chunk and its parities in place.
func (c *Core) afterReads(op *chunkOp) {
	op.reads--
	if op.reads > 0 {
		return
	}
	se, m := op.se, len(op.oldParity)
	oldData, oldParity := op.oldData, op.oldParity
	op.oldData, op.oldParity = nil, nil
	if op.readErr != nil {
		// The old content is unreadable (member death mid-update);
		// folding unknown deltas would corrupt the surviving parity.
		// Unwind the in-place attempt and re-home the chunk through
		// the append path instead.
		op.readErr = nil
		c.donateBuf(oldData)
		for r := 0; r < m; r++ {
			c.donateBuf(oldParity[r])
		}
		c.putVec(oldParity)
		c.unpin(op.e.pa)
		for _, ppa := range se.parity {
			c.unpin(ppa)
		}
		se.ipBusy = false
		c.ipNext(se)
		c.dropStripe(se)
		c.appendChunk(op)
		return
	}
	c.ipWriteData(op)
	// Fused single-pass kernels: delta = old ^ new in one XOR, then each
	// parity row reads old parity and writes new parity in one sweep
	// (DeltaRow) — no intermediate copy of either operand.
	delta := c.pool.Alloc(c.blockSize)
	if oldData != nil {
		erasure.XOR(delta, oldData, op.payload)
		c.donateBuf(oldData)
	} else {
		copy(delta, op.payload)
	}
	for r := 0; r < m; r++ {
		var np []byte
		if oldParity[r] != nil {
			np = c.pool.Alloc(c.blockSize)
			c.coder.DeltaRow(r, op.chunkIdx, delta, oldParity[r], np)
			c.donateBuf(oldParity[r])
		} else {
			np = c.getBuf()
			erasure.MulXor(c.coder.Coeff(r, op.chunkIdx), delta, np)
		}
		c.acct.ChargeParity(cpumodel.CompBIZA, int64(c.blockSize))
		c.ipWriteParity(op, r, np)
	}
	c.putBuf(delta)
	c.putVec(oldParity)
}

// ipWriteData rewrites the chunk in place; the op's payload reference
// moves to the dispatch.
func (c *Core) ipWriteData(op *chunkOp) {
	op.ds.submitChunk(op.zs, schedOp{
		off: op.e.pa.off, inplace: true, reserved: true, data: op.payload, own: op.own,
		oob: c.encodeOOB(oobKindData, op.lbn, op.e.sn, op.seq, op.chunkIdx), tag: op.tag,
		done: op.ipWriteFn,
	})
}

// ipWriteParity rewrites parity row r in place with parityData (nil in
// performance mode).
func (c *Core) ipWriteParity(op *chunkOp, r int, parityData []byte) {
	ppa := op.se.parity[r]
	pds := c.devs[ppa.dev]
	pzs := pds.zones[ppa.zone]
	c.parityBytes += uint64(c.blockSize)
	pds.submitChunk(pzs, schedOp{
		off: ppa.off, inplace: true, reserved: true, data: parityData,
		ownData: parityData != nil,
		oob:     c.encodeOOB(oobKindParity, int64(r), op.e.sn, op.seq, r), tag: zns.TagParity,
		done: op.ipWriteFn,
	})
}

// inPlaceWritten completes one of the in-place update's 1+m slot writes;
// the last one releases the stripe and acknowledges the chunk.
func (op *chunkOp) inPlaceWritten(w zns.WriteResult) {
	c := op.c
	err := w.Err
	if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
		// The slot's member died mid-update; the new content is still
		// covered by the surviving slots, so the write completes
		// degraded rather than failing.
		c.degradedWrites++
		err = nil
	}
	if err != nil && op.err == nil {
		op.err = err
	}
	op.pending--
	if op.pending > 0 {
		return
	}
	se := op.se
	if op.payload != nil {
		se.ipBusy = false
		c.ipNext(se)
	}
	c.dropStripe(se)
	op.finish()
}

// ipNext drains a stripe's queued rewrites. Each popped entry either takes
// the in-place path again (sets ipBusy; its completion resumes the drain)
// or falls through to an append (which never pops), so the drain continues
// until the stripe is busy or the queue is empty — queued writes can never
// strand behind a path change (slot flushed, stripe dissolving). The
// popped record's Fire resumes it and continues the drain.
func (c *Core) ipNext(se *smtEntry) {
	if se.ipBusy || se.ipq.len() == 0 {
		return
	}
	c.eng.AfterEvent(0, se.ipq.pop(), 0, 0)
}

// appendChunk allocates a fresh slot for the chunk, joins it to the open
// stripe of its class, and updates the partial parity in place. The op
// carries the chunk's payload reference while parked, until the chunk
// dispatches.
func (c *Core) appendChunk(op *chunkOp) {
	class := op.class
	// Free-zone cliff: park user work while GC needs headroom; GC's own
	// migrations (classGC) bypass.
	if class != classGC {
		for _, ds := range c.devs {
			if len(ds.freeZones) <= c.stallFloor() && ds.pickVictim() >= 0 {
				ds.stalled.push(op)
				c.maybeStartGC(ds)
				return
			}
		}
	}
	se := c.open[class]
	if se == nil || se.count >= c.nData {
		ns, err := c.newStripe(class)
		if err != nil {
			// Transient: open-zone slots exhausted while retired zones
			// drain. Park and retry when a slot frees.
			c.allocWaiters = append(c.allocWaiters, op)
			return
		}
		se = ns
		c.open[class] = se
	}
	// Data device: skip the stripe's parity devices, rotating through the
	// remainder by chunk index so stripe members stay distinct.
	dev := c.stripeDataDevice(se, se.count)
	ds := c.devs[dev]
	zs, off, err := ds.alloc(class)
	if err != nil {
		c.allocWaiters = append(c.allocWaiters, op)
		return
	}
	// Invalidate the previous copy.
	c.invalidate(op.lbn)

	sn := se.sn
	se.chunks = append(se.chunks, pa{dev: dev, zone: zs.id, off: off})
	se.lbns = append(se.lbns, op.lbn)
	se.valid++
	se.pending++
	c.bmt[op.lbn] = bmtEntry{pa: pa{dev: dev, zone: zs.id, off: off}, sn: sn}
	zs.rmapLBN.set(off, op.lbn)
	zs.rmapStripe.set(off, sn)
	zs.valid++
	c.acct.Charge(cpumodel.CompBIZA, cpumodel.CostMapUpdate)

	c.seq++
	seq := c.seq
	op.se, op.pending, op.err = se, 2, nil // data write + parity generation
	ds.submitChunk(zs, schedOp{
		off: off, data: op.payload, own: op.own,
		oob: c.encodeOOB(oobKindData, op.lbn, sn, seq, se.count), tag: op.tag,
		done: op.appendFn,
	})

	// Partial parity: fold the chunk into every row's accumulator and
	// rewrite the parity slots in place (§4.2: partial parities always own
	// ZRWA). The first write of each slot is its append; later updates are
	// in-place and absorbed by the device buffer. A slot flushed out of
	// its window (stripe lingered) is relocated.
	if op.payload != nil {
		if se.accs == nil {
			se.accs = c.getVec(c.cfg.Parity)
			for r := range se.accs {
				se.accs[r] = c.getBuf()
			}
		}
		for r := range se.accs {
			erasure.MulXor(c.coder.Coeff(r, se.count), op.payload, se.accs[r])
		}
		c.acct.ChargeParity(cpumodel.CompBIZA, int64(c.blockSize)*int64(c.cfg.Parity))
	}
	se.count++
	if se.count >= c.nData {
		se.sealed = true
		c.open[class] = nil
	}
	c.writeStripeParity(se, seq, op)
}

// appendDone completes an appended chunk's data write.
func (op *chunkOp) appendDone(r zns.WriteResult) {
	c := op.c
	op.se.pending--
	err := r.Err
	if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
		// The member died under the append. The payload was already
		// folded into the stripe's parity accumulator host-side, so the
		// chunk remains reconstructable from the survivors: acknowledge
		// the write degraded.
		c.degradedWrites++
		err = nil
	}
	op.part(err)
}

// writeStripeParity schedules a rewrite of the stripe's parity slot with
// the current accumulator; op waits for it. Only one parity write per
// stripe is in flight: concurrent chunk appends coalesce onto the next
// write (same-slot delivery reordering would otherwise leave a stale
// accumulator final).
func (c *Core) writeStripeParity(se *smtEntry, seq uint64, op *chunkOp) {
	if se.waitTail == nil {
		se.waitHead = op
	} else {
		se.waitTail.nextWaiter = op
	}
	se.waitTail = op
	if se.parityBusy {
		se.parityDirty = true
		return
	}
	se.refs++ // held until the generation's waiters are answered
	c.issueParity(se, seq)
}

func (c *Core) issueParity(se *smtEntry, seq uint64) {
	se.parityBusy = true
	se.parityDirty = false
	m := len(se.parity)
	se.parityLeft, se.parityErr = m, nil
	wasWritten := se.parityWritten
	se.parityWritten = true
	// A sealed stripe takes no further appends, so this is the final parity
	// generation: move the accumulators into the dispatch instead of
	// copying them (parityDone's retirement sweep skips the nil slots).
	final := se.sealed
	for r := 0; r < m; r++ {
		ppa := se.parity[r]
		pds := c.devs[ppa.dev]
		pzs := pds.zones[ppa.zone]
		var parityData []byte
		if se.accs != nil {
			if final {
				parityData, se.accs[r] = se.accs[r], nil
			} else {
				parityData = c.copyBuf(se.accs[r])
			}
		}
		c.parityBytes += uint64(c.blockSize)
		// The slot must still belong to this stripe: a device replacement
		// swaps in a fresh devState whose zones know nothing of slots
		// handed out before the swap, and an in-place write through such a
		// stale placement would corrupt the fresh zone's write pointer.
		inWindow := pzs != nil && !pzs.sealedF && pzs.rmapSN.get(ppa.off) == se.sn &&
			ppa.off >= pzs.devWP(c.zrwaBlocks)
		if inWindow {
			pds.submitChunk(pzs, schedOp{
				off: ppa.off, inplace: wasWritten, data: parityData,
				ownData: parityData != nil,
				oob:     c.encodeOOB(oobKindParity, int64(r), se.sn, seq, r), tag: zns.TagParity,
				done: se.parityFn,
			})
			continue
		}
		// Relocate: free the stale slot and append the full partial parity
		// to a fresh slot on the same device (member distinctness holds).
		if pzs != nil && pzs.rmapSN.get(ppa.off) == se.sn {
			pzs.rmapSN.set(ppa.off, -1)
			pzs.valid--
		}
		nzs, noff, err := pds.alloc(se.class)
		if err != nil {
			c.putBuf(parityData)
			c.parityDone(se, err)
			continue
		}
		se.parity[r] = pa{dev: ppa.dev, zone: nzs.id, off: noff}
		nzs.rmapSN.set(noff, se.sn)
		nzs.valid++
		pds.submitChunk(nzs, schedOp{
			off: noff, data: parityData, ownData: parityData != nil,
			oob: c.encodeOOB(oobKindParity, int64(r), se.sn, seq, r), tag: zns.TagParity,
			done: se.parityFn,
		})
	}
}

// parityDone completes one parity write of the stripe's generation in
// flight; the last one starts the next generation if appends coalesced
// meanwhile, or else answers every waiting chunk.
func (c *Core) parityDone(se *smtEntry, err error) {
	if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
		// A parity member died: this row is missing, but the data
		// chunks (and any surviving rows) keep the stripe within its
		// fault budget.
		c.degradedWrites++
		err = nil
	}
	if err != nil && se.parityErr == nil {
		se.parityErr = err
	}
	se.parityLeft--
	if se.parityLeft > 0 {
		return
	}
	if se.parityDirty {
		c.issueParity(se, c.seq)
		return
	}
	se.parityBusy = false
	// A sealed stripe takes no more appends, and the last parity copy
	// is on its way to the device — the accumulators retire here.
	if se.sealed && se.accs != nil {
		for r := range se.accs {
			c.putBuf(se.accs[r])
		}
		c.putVec(se.accs)
		se.accs = nil
	}
	// Detach the waiter list first: an answered chunk may append to this
	// stripe again and start the next generation.
	err = se.parityErr
	w := se.waitHead
	se.waitHead, se.waitTail = nil, nil
	for w != nil {
		next := w.nextWaiter
		w.nextWaiter = nil
		w.part(err)
		w = next
	}
	c.dropStripe(se)
}

// stripeDataDevice maps a stripe's chunk index to a member device,
// skipping the stripe's parity devices.
func (c *Core) stripeDataDevice(se *smtEntry, idx int) int {
	isParity := func(d int) bool {
		for _, p := range se.parity {
			if p.dev == d {
				return true
			}
		}
		return false
	}
	base := se.parity[0].dev
	seen := 0
	for i := 1; i <= len(c.devs); i++ {
		d := (base + i) % len(c.devs)
		if isParity(d) {
			continue
		}
		if seen == idx {
			return d
		}
		seen++
	}
	panic("core: stripe data device out of range")
}

// newStripe opens a stripe for a class: rotates the parity devices and
// allocates one parity slot from each of their class groups.
func (c *Core) newStripe(class Class) (*smtEntry, error) {
	m := c.cfg.Parity
	base := c.parityRot % len(c.devs)
	c.parityRot++
	sn := c.nextSN
	se := c.getStripe()
	for r := 0; r < m; r++ {
		pdev := (base + r) % len(c.devs)
		pds := c.devs[pdev]
		pzs, poff, err := pds.alloc(class)
		if err != nil {
			// Roll back slots already taken for this stripe.
			for rr := 0; rr < r; rr++ {
				q := se.parity[rr]
				if zs := c.devs[q.dev].zones[q.zone]; zs != nil && zs.rmapSN.get(q.off) == sn {
					zs.rmapSN.set(q.off, -1)
					zs.valid--
				}
			}
			c.putStripe(se)
			return nil, err
		}
		se.parity[r] = pa{dev: pdev, zone: pzs.id, off: poff}
		pzs.rmapSN.set(poff, sn)
		pzs.valid++
	}
	c.nextSN++
	se.sn, se.class = sn, class
	c.smt[sn] = se
	return se, nil
}

// invalidate drops the previous copy of a logical block: clears its zone
// slot and its stripe membership; fully dead sealed stripes release their
// parity slots and vanish.
func (c *Core) invalidate(lbn int64) {
	e, ok := c.bmt[lbn]
	if !ok {
		return
	}
	ds := c.devs[e.pa.dev]
	if zs := ds.zones[e.pa.zone]; zs != nil && zs.rmapLBN.get(e.pa.off) == lbn {
		zs.rmapLBN.set(e.pa.off, -1)
		zs.valid--
	}
	if se := c.smt[e.sn]; se != nil {
		for i, p := range se.chunks {
			if p == e.pa && se.lbns[i] == lbn {
				// Keep the slot address: its content still feeds the
				// stripe's parity for reconstruction; only liveness drops.
				se.lbns[i] = -1
				se.valid--
				break
			}
		}
		if se.valid == 0 && se.sealed && se.pending == 0 {
			c.releaseStripe(e.sn, se)
		}
	}
	delete(c.bmt, lbn)
}

// releaseStripe frees a dead stripe's parity slots, clears its slots'
// stripe ownership, and forgets it. The record is recycled now, or by
// the last asynchronous hold still on it.
func (c *Core) releaseStripe(sn int64, se *smtEntry) {
	for _, p := range se.parity {
		if p.dev < 0 {
			continue
		}
		if zs := c.devs[p.dev].zones[p.zone]; zs != nil && zs.rmapSN.get(p.off) == sn {
			zs.rmapSN.set(p.off, -1)
			zs.valid--
		}
	}
	for _, p := range se.chunks {
		if p.dev < 0 {
			continue
		}
		if zs := c.devs[p.dev].zones[p.zone]; zs != nil && zs.rmapStripe.get(p.off) == sn {
			zs.rmapStripe.set(p.off, -1)
		}
	}
	delete(c.smt, sn)
	se.released = true
	if se.refs == 0 {
		c.putStripe(se)
	}
}

// Trim implements blockdev.Device.
func (c *Core) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		c.invalidate(lba + i)
	}
}
