package core

// Completion records. Every asynchronous step of the write, parity,
// dispatch, GC-migration and read paths completes through a pooled record
// whose completion funcs are bound once, when the record is first built
// (the nvme layer's qop idiom), instead of through closures allocated per
// call. A record carries the state its closures used to capture, travels
// down the stack as a bound func or as a sim.Handler, and returns to its
// free list when its last completion has fired, so a steady-state write,
// in-place update, migration or read allocates no plumbing.
//
// Who recycles what (see DESIGN.md, "Event core"):
//   - userWrite, readOp: their final completion, just before the
//     caller's callback runs;
//   - chunkOp: the last of its completions (data write and parity
//     generation for an append, all 1+m slot writes for an in-place
//     update), just before the chunk is acknowledged;
//   - dispatchOp: the end of its device-write completion;
//   - dissolveOp, migrant, reconOp: their last read or migration write;
//   - smtEntry (one record per stripe, open or sealed): releaseStripe,
//     once no parity generation, in-place update or parked resume still
//     holds it (refs).
//
// Scheduling order is unchanged: each record is scheduled or submitted at
// exactly the point, and for exactly the virtual time, at which the old
// closure was, so the engine's (time, seq) order is identical.

import (
	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/zns"
)

// freeList is a LIFO of recycled records of one kind. out counts records
// handed out and not yet returned; at quiescence every transient record
// is back, which the record-lifetime tests assert.
type freeList[T any] struct {
	recs []*T
	out  int
}

// get pops a recycled record, or returns nil when the caller must build
// (and bind) a fresh one.
func (l *freeList[T]) get() *T {
	l.out++
	n := len(l.recs)
	if n == 0 {
		return nil
	}
	r := l.recs[n-1]
	l.recs[n-1] = nil
	l.recs = l.recs[:n-1]
	return r
}

func (l *freeList[T]) put(r *T) {
	l.out--
	if l.out < 0 {
		panic("core: record recycled twice")
	}
	l.recs = append(l.recs, r)
}

// fifo is a slice-backed queue of parked records that reuses its storage.
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, v)
}

func (f *fifo[T]) pop() T {
	v := f.q[f.head]
	var zero T
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// userWrite is one block-interface write in flight; each of its chunks
// reports to chunkFn.
type userWrite struct {
	c         *Core
	start     sim.Time
	remaining int
	err       error
	traced    bool
	span      obs.SpanID
	done      func(blockdev.WriteResult)
	chunkFn   func(error)
}

func (c *Core) getUserWrite() *userWrite {
	w := c.userWrites.get()
	if w == nil {
		w = &userWrite{c: c}
		w.chunkFn = w.chunkDone
	}
	return w
}

func (w *userWrite) chunkDone(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
	w.remaining--
	if w.remaining == 0 {
		w.finish()
	}
}

// Fire completes a write rejected at submission (out of range).
func (w *userWrite) Fire(_, _ sim.Time) { w.finish() }

func (w *userWrite) finish() {
	c := w.c
	res := blockdev.WriteResult{Err: w.err, Latency: c.eng.Now() - w.start}
	if w.traced {
		c.tr.SpanEnd(w.span, int64(c.eng.Now()), res.Err != nil)
	}
	done := w.done
	w.err, w.traced, w.done = nil, false, nil
	c.userWrites.put(w)
	if done != nil {
		done(res)
	}
}

// chunkOp is one chunk write (§4.1) from admission to acknowledgment: it
// takes the in-place path or joins an open stripe, parks on free-zone
// stalls, allocation failures and busy stripes, and reports to done.
type chunkOp struct {
	c       *Core
	lbn     int64
	payload []byte
	own     *buf.Buf // one transferred reference pinning payload
	class   Class
	tag     zns.WriteTag
	done    func(error)

	se      *smtEntry // stripe joined (append) or updated (in place)
	pending int       // completions outstanding
	err     error

	// nextWaiter links the op into its stripe's parity-waiter list.
	nextWaiter *chunkOp
	// ipWait is the stripe whose in-place queue the op is parked on; nil
	// when parked for an allocation retry.
	ipWait *smtEntry

	// In-place read-modify-write state.
	e         bmtEntry
	ds        *devState // the data slot's member at admission
	zs        *zoneState
	chunkIdx  int
	seq       uint64
	reads     int
	readErr   error
	oldData   []byte
	oldParity [][]byte

	appendFn   func(zns.WriteResult)
	ipWriteFn  func(zns.WriteResult)
	ipReadFn   func(zns.ReadResult)
	rowReadFns []func(zns.ReadResult) // per parity row, bound on first use
}

// newChunk returns a chunk write ready for writeChunk. own, if non-nil, is
// one transferred reference pinning payload; every path through the write
// flow consumes it exactly once.
func (c *Core) newChunk(lbn int64, payload []byte, own *buf.Buf, class Class, tag zns.WriteTag, done func(error)) *chunkOp {
	op := c.chunkOps.get()
	if op == nil {
		op = &chunkOp{c: c}
		op.appendFn = op.appendDone
		op.ipWriteFn = op.inPlaceWritten
		op.ipReadFn = op.dataRead
	}
	op.lbn, op.payload, op.own, op.class, op.tag, op.done = lbn, payload, own, class, tag, done
	return op
}

// rowReadFn returns the bound completion for the old-parity read of row r.
func (op *chunkOp) rowReadFn(r int) func(zns.ReadResult) {
	for len(op.rowReadFns) <= r {
		row := len(op.rowReadFns)
		op.rowReadFns = append(op.rowReadFns, func(res zns.ReadResult) { op.parityRead(row, res) })
	}
	return op.rowReadFns[r]
}

// part records one completion; the last one acknowledges the chunk.
func (op *chunkOp) part(err error) {
	if err != nil && op.err == nil {
		op.err = err
	}
	op.pending--
	if op.pending == 0 {
		op.finish()
	}
}

// finish recycles the op and acknowledges the chunk.
func (op *chunkOp) finish() {
	done, err := op.done, op.err
	op.payload, op.own, op.done = nil, nil, nil
	op.se, op.err, op.ds, op.zs = nil, nil, nil, nil
	op.c.chunkOps.put(op)
	if done != nil {
		done(err)
	}
}

// Fire resumes a parked chunk write: popped from a stripe's in-place
// queue it retries the whole write and continues the queue's drain;
// otherwise it retries the append after an allocation failure.
func (op *chunkOp) Fire(_, _ sim.Time) {
	c := op.c
	se := op.ipWait
	if se == nil {
		c.appendChunk(op)
		return
	}
	op.ipWait = nil
	c.writeChunk(op)
	c.ipNext(se)
	c.dropStripe(se)
}

// getStripe returns a stripe record with m parity slots and room for
// nData chunks.
func (c *Core) getStripe() *smtEntry {
	se := c.stripes.get()
	if se == nil {
		se = &smtEntry{
			parity: make([]pa, c.cfg.Parity),
			chunks: make([]pa, 0, c.nData),
			lbns:   make([]int64, 0, c.nData),
		}
		se.parityFn = func(w zns.WriteResult) { c.parityDone(se, w.Err) }
	}
	return se
}

// putStripe resets a stripe record for reuse. An accumulator still set
// (a stripe sealed short by GC with no parity generation left to retire
// it) is dropped, not recycled, exactly as before records were pooled.
func (c *Core) putStripe(se *smtEntry) {
	se.sn = 0
	se.chunks, se.lbns = se.chunks[:0], se.lbns[:0]
	se.sealed, se.valid, se.pending = false, 0, 0
	se.ipBusy, se.dissolving = false, false
	se.class, se.count, se.accs = 0, 0, nil
	se.parityWritten, se.parityBusy, se.parityDirty = false, false, false
	se.parityLeft, se.parityErr = 0, nil
	se.refs, se.released = 0, false
	c.stripes.put(se)
}

// dropStripe releases one asynchronous hold on a stripe record (a parity
// generation, an in-place update, or a parked resume); the last hold of
// a forgotten stripe recycles it.
func (c *Core) dropStripe(se *smtEntry) {
	se.refs--
	if se.refs == 0 && se.released {
		c.putStripe(se)
	}
}

// dispatchOp is one device write issued by the sliding-window scheduler:
// a merged append batch, or a single in-place update.
type dispatchOp struct {
	ds      *devState
	zs      *zoneState
	ip      schedOp   // the in-place update
	off     int64     // first block of the append batch
	ops     []schedOp // the append batch's chunks
	batch   []byte    // gather buffer to recycle, nil when passed through
	oob     [][]byte  // per-block OOB vector
	ipFn    func(zns.WriteResult)
	batchFn func(zns.WriteResult)
}

func (c *Core) getDispatch(ds *devState, zs *zoneState) *dispatchOp {
	d := c.dispatches.get()
	if d == nil {
		d = &dispatchOp{}
		d.ipFn = d.inPlaceDone
		d.batchFn = d.batchDone
	}
	d.ds, d.zs = ds, zs
	return d
}

func (c *Core) putDispatch(d *dispatchOp) {
	d.ds, d.zs, d.ip, d.ops, d.batch, d.oob = nil, nil, schedOp{}, nil, nil, nil
	c.dispatches.put(d)
}

// dissolveOp is one stripe dissolution (GC or rebuild); done fires once
// every live chunk has migrated.
type dissolveOp struct {
	c         *Core
	sn        int64
	remaining int
	done      func()
	ipWait    *smtEntry // set while parked behind an in-place update
}

func (c *Core) finishDissolve(d *dissolveOp) {
	done := d.done
	d.done = nil
	c.dissolves.put(d)
	done()
}

// Fire resumes a dissolution parked behind an in-place update and
// continues the stripe's queue drain.
func (d *dissolveOp) Fire(_, _ sim.Time) {
	c := d.c
	se := d.ipWait
	d.ipWait = nil
	c.dissolve(d)
	c.ipNext(se)
	c.dropStripe(se)
}

// migrant is one live chunk moving out of a dissolving stripe.
type migrant struct {
	c    *Core
	d    *dissolveOp
	lbn  int64
	p    pa
	next *migrant // issue list of the dissolution

	readFn  func(zns.ReadResult)
	writeFn func(error)
}

func (c *Core) getMigrant(d *dissolveOp, lbn int64, p pa) *migrant {
	m := c.migrants.get()
	if m == nil {
		m = &migrant{c: c}
		m.readFn = m.read
		m.writeFn = m.written
	}
	m.d, m.lbn, m.p = d, lbn, p
	return m
}

// reconSink receives a reconstructed chunk; tag is the caller's label for
// it (a read's buffer block index).
type reconSink interface {
	reconstructed(tag int64, data []byte, err error)
}

// reconFetch is one surviving shard read by a reconstruction.
type reconFetch struct {
	idx int
	p   pa
}

// reconOp is one chunk reconstruction from a stripe's survivors.
type reconOp struct {
	c         *Core
	lbn       int64
	dev       int // the member whose chunk is rebuilt
	sink      reconSink
	tag       int64
	shards    [][]byte
	fetches   []reconFetch
	target    int
	remaining int
	err       error
	fetchFns  []func(zns.ReadResult) // per fetch, bound on first use
}

func (op *reconOp) fetchFn(j int) func(zns.ReadResult) {
	for len(op.fetchFns) <= j {
		idx := len(op.fetchFns)
		op.fetchFns = append(op.fetchFns, func(r zns.ReadResult) { op.fetched(idx, r) })
	}
	return op.fetchFns[j]
}

// readRun is one coalesced device read of a block-interface read.
type readRun struct {
	dev, zone int
	off       int64
	bufIdx    []int64 // buffer block index of each block in the run
}

// readOp is one block-interface read in flight.
type readOp struct {
	c           *Core
	start       sim.Time
	lba         int64
	buf         []byte
	outstanding int
	err         error
	traced      bool
	span        obs.SpanID
	done        func(blockdev.ReadResult)
	runs        []readRun
	lastRun     map[[2]int]int // (dev, zone) -> index of its latest run
	degraded    []int64        // buffer block indices needing reconstruction
	runFns      []func(zns.ReadResult)
}

func (c *Core) getRead() *readOp {
	ro := c.reads.get()
	if ro == nil {
		ro = &readOp{c: c, lastRun: make(map[[2]int]int)}
	}
	return ro
}

func (ro *readOp) runFn(j int) func(zns.ReadResult) {
	for len(ro.runFns) <= j {
		idx := len(ro.runFns)
		ro.runFns = append(ro.runFns, func(r zns.ReadResult) { ro.runDone(idx, r) })
	}
	return ro.runFns[j]
}

// Fire completes a read with nothing to fetch (out of range, or every
// block unwritten).
func (ro *readOp) Fire(_, _ sim.Time) { ro.finish() }

func (ro *readOp) finish() {
	c := ro.c
	res := blockdev.ReadResult{Err: ro.err, Data: ro.buf, Latency: c.eng.Now() - ro.start}
	if ro.traced {
		c.tr.SpanEnd(ro.span, int64(c.eng.Now()), res.Err != nil)
	}
	done := ro.done
	ro.buf, ro.err, ro.traced, ro.done = nil, nil, false, nil
	c.reads.put(ro)
	if done != nil {
		done(res)
	}
}
