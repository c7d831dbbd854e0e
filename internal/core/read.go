package core

import (
	"errors"
	"fmt"
	"slices"

	"biza/internal/blockdev"
	"biza/internal/cpumodel"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// ErrUnrecoverable reports a degraded read that cannot be reconstructed.
var ErrUnrecoverable = errors.New("core: chunk unrecoverable (stripe incomplete)")

// SetDeviceFailed marks a member failed; subsequent reads of its chunks
// reconstruct from the surviving stripe members (degraded mode).
func (c *Core) SetDeviceFailed(dev int, failed bool) error {
	if dev < 0 || dev >= len(c.devs) {
		return fmt.Errorf("core: device %d out of range: %w", dev, storerr.ErrNotFound)
	}
	c.failed[dev] = failed
	return nil
}

// Read implements blockdev.Device: BMT lookups, coalesced per-zone reads,
// and parity reconstruction for chunks on failed members.
func (c *Core) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	start := c.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > c.Blocks() {
		if done != nil {
			ro := c.getRead()
			ro.start, ro.err, ro.done = start, blockdev.ErrOutOfRange, done
			c.eng.AfterEvent(sim.Microsecond, ro, 0, 0)
		}
		return
	}
	ro := c.getRead()
	ro.start, ro.lba, ro.done = start, lba, done
	if c.tr != nil {
		ro.traced = true
		ro.span = c.tr.SpanBegin(int64(start), obs.LayerBIZA, obs.OpRead, -1, -1, lba, int64(nblocks))
	}
	if c.StoresData() {
		ro.buf = make([]byte, int64(nblocks)*c.chunkBytes())
	}
	// Coalesce per (device, zone): chunks of a striped logical range land
	// at consecutive zone offsets on each member even though their buffer
	// positions interleave, so each run carries its blocks' buffer indices
	// for de-striping (one device command per run, the block layer's
	// request merging).
	runs := ro.runs[:0]
	clear(ro.lastRun)
	degraded := ro.degraded[:0]
	for i := int64(0); i < int64(nblocks); i++ {
		e, ok := c.bmt[lba+i]
		if !ok {
			continue // unwritten reads as zeros
		}
		if c.failed[e.pa.dev] {
			degraded = append(degraded, i)
			continue
		}
		key := [2]int{e.pa.dev, e.pa.zone}
		if li, ok := ro.lastRun[key]; ok {
			r := &runs[li]
			if r.off+int64(len(r.bufIdx)) == e.pa.off {
				r.bufIdx = append(r.bufIdx, i)
				continue
			}
		}
		// Reuse the next run slot's index storage from earlier reads.
		if len(runs) < cap(runs) {
			runs = runs[:len(runs)+1]
		} else {
			runs = append(runs, readRun{})
		}
		r := &runs[len(runs)-1]
		r.dev, r.zone, r.off = e.pa.dev, e.pa.zone, e.pa.off
		r.bufIdx = append(r.bufIdx[:0], i)
		ro.lastRun[key] = len(runs) - 1
	}
	ro.runs, ro.degraded = runs, degraded
	ro.outstanding = len(runs) + len(degraded)
	if ro.outstanding == 0 {
		if done == nil && !ro.traced {
			ro.finish() // nothing to fetch and no one to tell
			return
		}
		c.eng.AfterEvent(sim.Microsecond, ro, 0, 0)
		return
	}
	for j := range runs {
		r := &runs[j]
		c.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
		c.devs[r.dev].q.Read(r.zone, r.off, len(r.bufIdx), ro.runFn(j))
	}
	for _, i := range degraded {
		c.reconstructChunk(lba+i, ro, i)
	}
}

// runDone completes the device read of run j.
func (ro *readOp) runDone(j int, res zns.ReadResult) {
	c := ro.c
	bs := c.chunkBytes()
	r := &ro.runs[j]
	if res.Err != nil {
		c.noteIOError(r.dev, res.Err)
		if storerr.Reconstructable(res.Err) {
			// The member died (or the blocks rotted) under this
			// read: serve each block through parity instead.
			ro.outstanding += len(r.bufIdx) - 1
			for _, idx := range r.bufIdx {
				c.reconstructChunk(ro.lba+idx, ro, idx)
			}
			return
		}
	}
	if res.Data != nil {
		for j, idx := range r.bufIdx {
			copy(ro.buf[idx*bs:(idx+1)*bs], res.Data[int64(j)*bs:(int64(j)+1)*bs])
		}
	}
	ro.blockDone(res.Err)
}

// reconstructed implements reconSink: block idx of the read buffer was
// rebuilt from parity.
func (ro *readOp) reconstructed(idx int64, data []byte, err error) {
	if data != nil && ro.buf != nil {
		bs := ro.c.chunkBytes()
		copy(ro.buf[idx*bs:(idx+1)*bs], data)
	}
	ro.blockDone(err)
}

// blockDone counts one run or reconstructed block in; the last one
// completes the read.
func (ro *readOp) blockDone(err error) {
	if err != nil && ro.err == nil {
		ro.err = err
	}
	ro.outstanding--
	if ro.outstanding == 0 {
		ro.finish()
	}
}

// reconstructChunk rebuilds one chunk of a failed member from the
// stripe's surviving shards via the erasure code (plain XOR for RAID 5,
// Reed-Solomon beyond) and hands it to sink under tag. Stale sibling
// slots still feed parity, so they are read too; chunk positions a short
// stripe never filled are zero shards by construction.
func (c *Core) reconstructChunk(lbn int64, sink reconSink, tag int64) {
	e, ok := c.bmt[lbn]
	if !ok {
		sink.reconstructed(tag, nil, nil)
		return
	}
	op := c.recons.get()
	if op == nil {
		op = &reconOp{c: c}
	}
	op.lbn, op.dev, op.sink, op.tag = lbn, e.pa.dev, sink, tag
	se := c.smt[e.sn]
	if se == nil {
		op.finish(nil, ErrUnrecoverable)
		return
	}
	k, m := c.nData, len(se.parity)
	op.shards = slices.Grow(op.shards[:0], k+m)[:k+m]
	clear(op.shards)
	fetches := op.fetches[:0]
	target := -1
	for i := 0; i < k; i++ {
		if i >= len(se.chunks) {
			op.shards[i] = make([]byte, c.blockSize) // never written: zero shard
			continue
		}
		p := se.chunks[i]
		if p == e.pa {
			target = i
			continue // the missing shard
		}
		if p.dev < 0 {
			op.shards[i] = make([]byte, c.blockSize)
			continue
		}
		if c.failed[p.dev] {
			continue // another missing shard; RS may still recover
		}
		fetches = append(fetches, reconFetch{idx: i, p: p})
	}
	op.fetches = fetches
	if target < 0 {
		op.finish(nil, ErrUnrecoverable)
		return
	}
	for r := 0; r < m; r++ {
		p := se.parity[r]
		if p.dev < 0 || c.failed[p.dev] {
			continue
		}
		fetches = append(fetches, reconFetch{idx: k + r, p: p})
	}
	op.fetches = fetches
	if len(fetches) == 0 {
		op.finish(nil, ErrUnrecoverable)
		return
	}
	op.target, op.remaining, op.err = target, len(fetches), nil
	for j, f := range fetches {
		c.devs[f.p.dev].q.Read(f.p.zone, f.p.off, 1, op.fetchFn(j))
	}
}

// fetched completes the read of surviving shard j.
func (op *reconOp) fetched(j int, r zns.ReadResult) {
	c := op.c
	f := op.fetches[j]
	if r.Err != nil {
		c.noteIOError(f.p.dev, r.Err)
		// A reconstructable fetch failure just leaves this shard
		// missing — the code may still recover from the rest.
		if !storerr.Reconstructable(r.Err) && op.err == nil {
			op.err = r.Err
		}
	}
	if r.Data != nil {
		op.shards[f.idx] = r.Data
	} else if r.Err == nil {
		op.shards[f.idx] = make([]byte, c.blockSize)
	}
	op.remaining--
	if op.remaining > 0 {
		return
	}
	switch {
	case op.err != nil:
		op.finish(nil, op.err)
	case c.coder.Reconstruct(op.shards) != nil:
		op.finish(nil, ErrUnrecoverable)
	default:
		op.finish(op.shards[op.target], nil)
	}
}

// finish records the reconstruction, recycles the op and delivers the
// chunk.
func (op *reconOp) finish(data []byte, err error) {
	c := op.c
	c.noteReconstruct(op.dev, op.lbn, err)
	sink, tag := op.sink, op.tag
	clear(op.shards)
	op.sink, op.err = nil, nil
	c.recons.put(op)
	sink.reconstructed(tag, data, err)
}
