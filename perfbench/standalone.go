package main

import (
	"fmt"
	"time"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/erasure"
	"biza/internal/ftl"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/zns"
)

// standalone adds the per-layer timings taken on a layer in isolation:
// for the BIZA workloads the driver queue, flash model, erasure coder and
// buffer pool fed the workload's own command sizes; for the baseline grid
// the FTL and RAIZN write paths.
func standalone(name string, seed uint64, sizes []int64, vals map[string]float64) error {
	switch name {
	case "biza_gc_randwrite", "tenant_mixed_rw":
		if len(sizes) == 0 {
			return fmt.Errorf("%s: the traced round recorded no driver-queue writes", name)
		}
		var err error
		if vals["nvme.write_ns"], err = deviceWriteNs(seed, sizes, true); err != nil {
			return err
		}
		if vals["zns.write_ns"], err = deviceWriteNs(seed, sizes, false); err != nil {
			return err
		}
		if vals["zns.read_ns"], err = znsReadNs(seed, sizes); err != nil {
			return err
		}
		vals["erasure.encode_MBps"], vals["erasure.delta_MBps"] = erasureMBps()
		vals["buf.get_release_ns"] = bufGetReleaseNs(sizes)
	case "baseline_fio_grid":
		var err error
		if vals["ftl.write_ns"], err = ftlWriteNs(seed); err != nil {
			return err
		}
		if vals["raizn.submit_ns"], err = raiznSubmitNs(seed); err != nil {
			return err
		}
	}
	return nil
}

const (
	standaloneOps     = 20000
	standaloneStreams = 4 // concurrent zone streams, one command in flight each
)

// standaloneZNS returns a flash model with the GC workload's zone geometry
// and enough zones for standaloneOps writes of the given sizes.
func standaloneZNS(seed uint64, sizes []int64) (*sim.Engine, *zns.Device, error) {
	eng := sim.NewEngine()
	cfg := gcOptions(seed).ZNS
	var blocks int64
	for i := 0; i < standaloneOps; i++ {
		blocks += min(sizes[i%len(sizes)], cfg.ZRWABlocks)
	}
	// A zone is finished once the next write does not fit, so each zone
	// holds at least ZoneBlocks-ZRWABlocks blocks.
	cfg.NumZones = int(blocks/(cfg.ZoneBlocks-cfg.ZRWABlocks)) + 2*standaloneStreams
	cfg.Seed = sim.DeriveSeed(seed, "standalone/zns")
	d, err := zns.New(eng, cfg)
	return eng, d, err
}

// zoneWriter streams sequential writes of the given sizes into fresh
// ZRWA-enabled zones, one command in flight per stream.
type zoneWriter struct {
	d     *zns.Device
	sizes []int64
	next  int   // next zone to open
	i     int   // next size
	err   error // first failed write
}

func (w *zoneWriter) stream(write func(z int, lba int64, n int, done func(zns.WriteResult)), left *int) {
	cfg := w.d.Config()
	z, wp := -1, int64(0)
	var step func()
	step = func() {
		if *left <= 0 || w.err != nil {
			return
		}
		n := min(w.sizes[w.i%len(w.sizes)], cfg.ZRWABlocks)
		w.i++
		if z < 0 || wp+n > cfg.ZoneBlocks {
			if z >= 0 {
				if err := w.d.Finish(z); err != nil {
					w.err = err
					return
				}
			}
			z, wp = w.next, 0
			w.next++
			if err := w.d.Open(z, true); err != nil {
				w.err = err
				return
			}
		}
		*left--
		lba := wp
		wp += n
		write(z, lba, int(n), func(r zns.WriteResult) {
			if r.Err != nil && w.err == nil {
				w.err = r.Err
			}
			step()
		})
	}
	step()
}

// deviceWriteNs reports host ns per write→completion on a standalone
// flash model, through a driver queue when viaQueue is set.
func deviceWriteNs(seed uint64, sizes []int64, viaQueue bool) (float64, error) {
	eng, d, err := standaloneZNS(seed, sizes)
	if err != nil {
		return 0, err
	}
	write := func(z int, lba int64, n int, done func(zns.WriteResult)) {
		d.Write(z, lba, n, nil, nil, zns.TagUserData, done)
	}
	if viaQueue {
		q := nvme.New(d, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: sim.DeriveSeed(seed, "standalone/nvme")})
		write = func(z int, lba int64, n int, done func(zns.WriteResult)) {
			q.Write(z, lba, n, nil, nil, zns.TagUserData, done)
		}
	}
	w := &zoneWriter{d: d, sizes: sizes}
	left := standaloneOps
	t0 := time.Now()
	for i := 0; i < standaloneStreams; i++ {
		w.stream(write, &left)
	}
	eng.Run()
	el := time.Since(t0)
	if w.err != nil {
		return 0, fmt.Errorf("standalone writes: %w", w.err)
	}
	return float64(el) / standaloneOps, nil
}

// znsReadNs reports host ns per read→completion on a standalone flash
// model, reading back blocks written with the given sizes.
func znsReadNs(seed uint64, sizes []int64) (float64, error) {
	eng, d, err := standaloneZNS(seed, sizes)
	if err != nil {
		return 0, err
	}
	w := &zoneWriter{d: d, sizes: sizes}
	left := standaloneOps
	for i := 0; i < standaloneStreams; i++ {
		w.stream(func(z int, lba int64, n int, done func(zns.WriteResult)) {
			d.Write(z, lba, n, nil, nil, zns.TagUserData, done)
		}, &left)
	}
	eng.Run()
	if w.err != nil {
		return 0, fmt.Errorf("standalone writes: %w", w.err)
	}
	cfg := d.Config()
	rng := sim.NewRNG(sim.DeriveSeed(seed, "standalone/read"))
	var rerr error
	reads := 0
	var step func()
	step = func() {
		if reads >= standaloneOps {
			return
		}
		reads++
		n := min(sizes[reads%len(sizes)], cfg.ZRWABlocks)
		z := rng.Intn(w.next - 1) // zones before the last are fully written
		lba := rng.Int63n(cfg.ZoneBlocks - n + 1)
		d.Read(z, lba, int(n), func(r zns.ReadResult) {
			if r.Err != nil && rerr == nil {
				rerr = r.Err
			}
			step()
		})
	}
	t0 := time.Now()
	for i := 0; i < standaloneStreams; i++ {
		step()
	}
	eng.Run()
	el := time.Since(t0)
	if rerr != nil {
		return 0, fmt.Errorf("standalone reads: %w", rerr)
	}
	return float64(el) / standaloneOps, nil
}

// erasureMBps reports RAID-5 (k=3, m=1) parity encode and parity-delta
// update throughput over 4 KiB chunks, the BIZA chunk size.
func erasureMBps() (encode, delta float64) {
	const k, chunk, rounds = 3, 4096, 50000
	c, err := erasure.NewCoder(k, 1)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = payloadPattern(uint64(i), chunk)
	}
	parity := [][]byte{make([]byte, chunk)}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := c.Encode(data, parity); err != nil {
			panic(err)
		}
	}
	encode = float64(k*chunk*rounds) / time.Since(t0).Seconds() / 1e6
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		if err := c.Delta(i%k, data[(i+1)%k], parity); err != nil {
			panic(err)
		}
	}
	delta = float64(chunk*rounds) / time.Since(t0).Seconds() / 1e6
	return encode, delta
}

// bufGetReleaseNs reports host ns per buffer-pool Get plus Release at the
// workload's command sizes.
func bufGetReleaseNs(sizes []int64) float64 {
	const rounds = 200000
	p := buf.NewPool()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		p.Get(int(sizes[i%len(sizes)])*4096, 0).Release()
	}
	return float64(time.Since(t0)) / rounds
}

// ftlWriteNs reports host ns per random 4 KiB write→completion on a
// standalone conventional SSD at QD32.
func ftlWriteNs(seed uint64) (float64, error) {
	eng := sim.NewEngine()
	cfg := stack.BenchFTL(512)
	cfg.Seed = sim.DeriveSeed(seed, "standalone/ftl")
	d, err := ftl.New(eng, cfg)
	if err != nil {
		return 0, err
	}
	rng := sim.NewRNG(cfg.Seed)
	span := d.Blocks() / 2
	left := standaloneOps
	var werr error
	var step func()
	step = func() {
		if left <= 0 {
			return
		}
		left--
		d.Write(rng.Int63n(span), 1, nil, func(r blockdev.WriteResult) {
			if r.Err != nil && werr == nil {
				werr = r.Err
			}
			step()
		})
	}
	t0 := time.Now()
	for i := 0; i < 32; i++ {
		step()
	}
	eng.Run()
	el := time.Since(t0)
	if werr != nil {
		return 0, fmt.Errorf("standalone ftl writes: %w", werr)
	}
	return float64(el) / standaloneOps, nil
}

// raiznSubmitNs reports host ns inside RAIZN's synchronous Write call for
// sequential 64 KiB writes at QD32.
func raiznSubmitNs(seed uint64) (float64, error) {
	p, err := stack.New(stack.KindRAIZN, stack.Options{Seed: sim.DeriveSeed(seed, "standalone/raizn")})
	if err != nil {
		return 0, err
	}
	a := p.RAIZN
	const n = 16
	zoneBlocks := a.ZoneBlocks()
	z, wp := 0, int64(0)
	left := standaloneOps / 4
	var inCall time.Duration
	var werr error
	var step func()
	step = func() {
		if left <= 0 || werr != nil {
			return
		}
		left--
		if wp+n > zoneBlocks { // zone full: move on
			z, wp = z+1, 0
		}
		lba := wp
		wp += n
		t0 := time.Now()
		a.Write(z, lba, n, nil, zns.TagUserData, func(r zns.WriteResult) {
			if r.Err != nil && werr == nil {
				werr = r.Err
			}
			step()
		})
		inCall += time.Since(t0)
	}
	for i := 0; i < 32; i++ {
		step()
	}
	p.Eng.Run()
	if werr != nil {
		return 0, fmt.Errorf("standalone raizn writes: %w", werr)
	}
	return float64(inCall) / float64(standaloneOps/4), nil
}

// payloadPattern returns n seeded pseudo-random bytes.
func payloadPattern(seed uint64, n int) []byte {
	rng := sim.NewRNG(sim.DeriveSeed(seed, "payload"))
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}
