package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPoolBufSemantics checks the buffer pool contracts the write path
// relies on: getBuf returns zeroed memory after a dirty put, copyBuf
// snapshots its source (and counts the copy), and foreign buffers go
// through donateBuf without disturbing the outstanding-slab accounting.
func TestPoolBufSemantics(t *testing.T) {
	_, c, _ := newCore(t, nil)
	b := c.getBuf()
	if len(b) != c.blockSize {
		t.Fatalf("getBuf len = %d, want %d", len(b), c.blockSize)
	}
	for i := range b {
		b[i] = 0xAB
	}
	c.putBuf(b)
	b2 := c.getBuf()
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("getBuf reused dirty buffer: byte %d = %#x", i, v)
		}
	}
	src := pat(7, c.blockSize)
	copies := c.pool.Stats().Copies
	cp := c.copyBuf(src)
	src[0] ^= 0xFF
	if cp[0] == src[0] {
		t.Fatal("copyBuf aliases its source")
	}
	if got := c.pool.Stats().Copies; got != copies+1 {
		t.Fatalf("copyBuf recorded %d copies, want %d", got, copies+1)
	}
	c.putBuf(nil)                            // nil-safe
	c.donateBuf(make([]byte, c.blockSize/2)) // foreign buffer: no accounting
	c.donateBuf(nil)                         // nil-safe
	c.putBuf(cp)
	c.putBuf(b2)
	if live := c.pool.RawLive(); live != 0 {
		t.Fatalf("raw slabs outstanding after balanced put cycle: %d", live)
	}
}

// TestPoolVecDropsReferences: putVec must nil out elements so pooled
// vectors do not pin block buffers.
func TestPoolVecDropsReferences(t *testing.T) {
	_, c, _ := newCore(t, nil)
	v := c.getVec(3)
	for i := range v {
		v[i] = c.getBuf()
	}
	c.putVec(v)
	v2 := c.getVec(3)
	for i, e := range v2 {
		if e != nil {
			t.Fatalf("getVec element %d not nil after recycle", i)
		}
	}
	c.putVec(v2)
}

// TestPoolCycleAllocFree is the pool-discipline gate: once warm, a full
// get/put cycle across every pool costs zero allocations.
func TestPoolCycleAllocFree(t *testing.T) {
	_, c, _ := newCore(t, nil)
	cycle := func() {
		b := c.getBuf()
		cp := c.copyBuf(b)
		c.putBuf(b)
		c.putBuf(cp)
		o := c.getOOB()
		c.putOOB(o)
		bt := c.getBatch(4 * c.blockSize)
		c.putBatch(bt)
		v := c.getVec(4)
		c.putVec(v)
		ops := c.getOps()
		ops = append(ops, schedOp{})
		c.putOps(ops)
		ab := c.getAB()
		c.putAB(ab)
	}
	cycle() // warm every pool
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("pool cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestSteadyStateStripeWriteAllocs gates the steady-state full-stripe
// write path in performance mode (StoreData=false, the configuration of
// every figure experiment). The pooled buffers must eliminate all payload
// allocation: total bytes allocated per stripe write stays under one
// block, which is impossible if even a single chunk, parity, OOB, or
// batch buffer were still taken from the heap. The object count bound
// locks in the pooled completion records (records.go): core itself
// allocates nothing per stripe; the few remaining objects are the
// selector's ghost-cache list entries and the flash model's buffer-credit
// waiter queue growth.
func TestSteadyStateStripeWriteAllocs(t *testing.T) {
	step := appendScenario(t)
	blockSize := devConfig().BlockSize
	const runs = 200
	allocs := testing.AllocsPerRun(runs, step)

	gcOff := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcOff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs

	t.Logf("steady-state stripe write: %.1f allocs, %.0f bytes", allocs, bytesPer)
	if bytesPer >= float64(blockSize) {
		t.Fatalf("stripe write allocates %.0f bytes, want < one block (%d): a payload buffer escaped the pools", bytesPer, blockSize)
	}
	if allocs > 5 {
		t.Fatalf("stripe write allocates %.1f objects, want <= 5 (pooled records regressed)", allocs)
	}
}
