package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile accumulates self time per attribution bucket from CPU
// profiles in the runtime/pprof protobuf format. Only the fields the
// attribution needs are decoded: samples (leaf location, value), locations
// (innermost inlined function) and function names.
type cpuProfile struct {
	self  map[string]int64
	total int64
}

// add decodes one gzipped profile and charges each sample's CPU time to
// the bucket of its leaf function.
func (c *cpuProfile) add(gz []byte) error {
	if c.self == nil {
		c.self = map[string]int64{}
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		strs    []string
		samples [][2][]uint64           // location ids (leaf first), values
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost inlined first
		fnName  = map[uint64]uint64{}
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s [2][]uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				if f == 1 || f == 2 {
					vals, err := pbRepeated(v, b)
					s[f-1] = append(s[f-1], vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) < 2 {
			continue
		}
		ns := int64(s[1][1]) // values: [samples, cpu nanoseconds]
		var stack []string
		for _, loc := range s[0] {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		c.self[cpuBucket(stack)] += ns
		c.total += ns
	}
	return nil
}

// shares reports each bucket's share of the profiled CPU time, in percent.
func (c *cpuProfile) shares() map[string]float64 {
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		if c.total > 0 {
			out[b] = float64(c.self[b]) * 100 / float64(c.total)
		}
	}
	return out
}

// cpuBucket attributes one sample, given its stack of fully qualified
// function names leaf first. Time anywhere inside the allocator or the
// collector goes to those buckets; other library and runtime helpers
// (copies, map operations) are charged to the nearest calling layer.
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			continue
		}
		for _, s := range []string{"gcBgMarkWorker", "gcAssistAlloc", "bgsweep", "bgscavenge", "gcDrain",
			"(*gcControllerState)", "gcStart", "gcMarkDone", "gcMarkTermination"} {
			if strings.Contains(fn, s) {
				return "runtime_gc"
			}
		}
		for _, s := range []string{"mallocgc", "newobject", "makeslice", "growslice", "newarray",
			"makemap", "rawbyteslice", "rawstring", "concatstring"} {
			if strings.Contains(fn, s) {
				return "runtime_malloc"
			}
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main."):
			return "harness"
		case strings.HasPrefix(fn, "biza/internal/"):
			pkg := strings.TrimPrefix(fn, "biza/internal/")
			pkg = pkg[:strings.IndexAny(pkg+".", "./")]
			if pkg == "ghostcache" {
				return "core" // the selector's ghost-cache hierarchy
			}
			for _, b := range cpuBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		}
	}
	return "other"
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated decodes a repeated varint field in either encoding: one
// unpacked value v (body nil) or a packed body.
func pbRepeated(v uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(body) > 0 {
		x, n := pbVarint(body)
		if n == 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, x)
		body = body[n:]
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
