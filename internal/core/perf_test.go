package core

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/zns"
)

// Per-layer cost of the BIZA core: one steady-state scenario per hot path
// (full-stripe append, in-place read-modify-write, GC migration of one
// stripe, single-block read). Each scenario is a setup that returns one
// step — submit the operation and drain the engine — shared by the
// allocation gates below and the BenchmarkCore* microbenchmarks.

func perfMode(_ *Config, dcfgs *[]zns.Config) {
	for i := range *dcfgs {
		(*dcfgs)[i].StoreData = false
	}
}

// appendScenario rewrites full stripes over half the capacity in
// performance mode, so every chunk takes the append path (and GC runs in
// the background as zones fill).
func appendScenario(tb testing.TB) func() {
	eng, c, _ := newCore(tb, perfMode)
	k := c.nData
	span := c.Blocks() / 2
	for lba := int64(0); lba+int64(k) <= span; lba += int64(k) {
		wsync(eng, c, lba, k, nil)
	}
	done := func(blockdev.WriteResult) {}
	lba := int64(0)
	return func() {
		c.Write(lba, k, nil, done)
		eng.Run()
		lba += int64(k)
		if lba+int64(k) > span {
			lba = 0
		}
	}
}

// inPlaceScenario rewrites one block of a sealed stripe whose slots stay
// inside their ZRWA windows, with payloads on: every step is an in-place
// read-modify-write of the chunk and its parity.
func inPlaceScenario(tb testing.TB) func() {
	eng, c, _ := newCore(tb, nil)
	k := c.nData
	wsync(eng, c, 0, k, pat(1, k*c.blockSize))
	payload := pat(2, c.blockSize)
	done := func(r blockdev.WriteResult) {
		if r.Err != nil {
			tb.Fatalf("in-place write: %v", r.Err)
		}
	}
	step := func() {
		c.Write(0, 1, payload, done)
		eng.Run()
	}
	hits := c.InPlaceHits()
	step()
	if c.InPlaceHits() != hits+1 {
		tb.Fatal("scenario rewrite did not take the in-place path")
	}
	return step
}

// gcMigrateScenario dissolves the stripe holding block 0 in performance
// mode: its live chunks migrate into a GC-class stripe, which the next
// step dissolves in turn.
func gcMigrateScenario(tb testing.TB) func() {
	eng, c, _ := newCore(tb, perfMode)
	k := c.nData
	wsync(eng, c, 0, k, nil)
	done := func() {}
	return func() {
		c.dissolveStripe(c.bmt[0].sn, done)
		eng.Run()
	}
}

// readScenario reads one written block in performance mode.
func readScenario(tb testing.TB) func() {
	eng, c, _ := newCore(tb, perfMode)
	wsync(eng, c, 0, c.nData, nil)
	done := func(r blockdev.ReadResult) {
		if r.Err != nil {
			tb.Fatalf("read: %v", r.Err)
		}
	}
	return func() {
		c.Read(0, 1, done)
		eng.Run()
	}
}

// warm builds a scenario and runs it until its pools and queues reach
// steady state.
func warm(tb testing.TB, scenario func(testing.TB) func()) func() {
	step := scenario(tb)
	for i := 0; i < 50; i++ {
		step()
	}
	return step
}

// steadyAllocs measures a warm scenario's allocations per step.
func steadyAllocs(tb testing.TB, scenario func(testing.TB) func()) float64 {
	return testing.AllocsPerRun(200, warm(tb, scenario))
}

func benchScenario(b *testing.B, scenario func(testing.TB) func()) {
	step := warm(b, scenario)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkCoreAppend(b *testing.B)    { benchScenario(b, appendScenario) }
func BenchmarkCoreInPlace(b *testing.B)   { benchScenario(b, inPlaceScenario) }
func BenchmarkCoreGCMigrate(b *testing.B) { benchScenario(b, gcMigrateScenario) }
func BenchmarkCoreRead(b *testing.B)      { benchScenario(b, readScenario) }

// The allocation gates below lock in the pooled completion records:
// once warm, core allocates nothing per operation. The bounds that are
// not zero cover allocations below core, in the flash model: the fresh
// result slices of device reads and the growth of its buffer-credit
// waiter queues.

// TestInPlaceUpdateAllocs gates a steady-state in-place read-modify-write
// with payloads on. The remaining objects come from the flash model's read
// path, which returns fresh result slices for the 1+m old-slot reads.
func TestInPlaceUpdateAllocs(t *testing.T) {
	if allocs := steadyAllocs(t, inPlaceScenario); allocs > 8 {
		t.Fatalf("in-place update allocates %.1f objects, want <= 8 (pooled records regressed)", allocs)
	}
}

// TestGCMigrateAllocs gates the dissolution of one sealed stripe: the
// dissolve, migrant and chunk records are pooled; what remains is the
// flash model's credit-waiter queue growth.
func TestGCMigrateAllocs(t *testing.T) {
	if allocs := steadyAllocs(t, gcMigrateScenario); allocs > 6 {
		t.Fatalf("GC migration allocates %.1f objects, want <= 6 (pooled records regressed)", allocs)
	}
}

// TestCoreReadAllocFree gates a single-block read in performance mode:
// the read record, its runs and their bound completions are all reused.
func TestCoreReadAllocFree(t *testing.T) {
	if allocs := steadyAllocs(t, readScenario); allocs != 0 {
		t.Fatalf("single-block read allocates %.1f objects, want 0", allocs)
	}
}
