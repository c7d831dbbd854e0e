package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkReport asserts that a run passed its output checks and printed
// exactly the named metrics with their units.
func checkReport(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.failures) > 0 {
		t.Fatalf("output checks failed: %v", res.failures)
	}
	if res.attempted < 1 {
		t.Fatalf("attempted %d I/Os", res.attempted)
	}
	if len(res.metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
		if !metricName.MatchString(w.Name) {
			t.Errorf("metric name %q does not match %s", w.Name, metricName)
		}
	}
	line, err := res.marshal()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           *bool
		Attempted, Failed *int64
		Metrics           map[string]metric
	}
	if err := json.Unmarshal(line, &out); err != nil || out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("result line %s: %v", line, err)
	}
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
}

// TestShortRuns runs every workload briefly, timed and traced, and checks
// that each prints every metric BENCHMARK.json names, with its unit, and
// passes the output and determinism checks.
func TestShortRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 7, seconds: 0.001, short: true, out: t.TempDir()}
			res, err := runTimed(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, res, spec.EndToEnd)
			o.trace = true
			res, err = runTraced(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, res, spec.PerLayer)
		})
	}
}

func TestDeterminismCheckCatchesMismatch(t *testing.T) {
	a := &round{attempted: 10, sim: simResult{Samples: 10, P99: 5}}
	b := &round{attempted: 10, sim: simResult{Samples: 10, P99: 6}}
	res := newResult()
	checkRounds(res, []*round{a, a})
	if len(res.failures) != 0 {
		t.Fatalf("identical rounds failed: %v", res.failures)
	}
	checkRounds(res, []*round{a, b})
	if len(res.failures) != 1 {
		t.Fatalf("differing rounds: failures %v", res.failures)
	}
	c := &round{attempted: 10, failed: 1, sim: a.sim}
	res = newResult()
	checkRounds(res, []*round{a, a, c})
	if len(res.failures) != 1 {
		t.Fatalf("differing failure counts: failures %v", res.failures)
	}
	if res.attempted != 10 || res.failed != 0 {
		t.Fatalf("reported %d/%d failed, want the first round's 0/10", res.failed, res.attempted)
	}
}

func TestReferenceCheck(t *testing.T) {
	b := make([]byte, 4096)
	if !blockValid(b, 2, 9, 0, 0) {
		t.Error("unwritten block rejected")
	}
	if blockValid(b, 2, 9, 3, 3) {
		t.Error("zeros accepted for an acknowledged write")
	}
	stampBlock(b, 2, 9, 5)
	for _, c := range []struct {
		vol      int
		lba      int64
		acked    uint64
		issued   uint64
		accepted bool
	}{
		{2, 9, 5, 5, true},   // the acknowledged version
		{2, 9, 4, 5, true},   // a newer version issued since the read
		{2, 9, 6, 6, false},  // stale: a newer write was acknowledged
		{2, 10, 5, 5, false}, // another block's data
		{3, 9, 5, 5, false},  // another volume's data
		{2, 9, 0, 4, false},  // a version never issued
	} {
		if got := blockValid(b, c.vol, c.lba, c.acked, c.issued); got != c.accepted {
			t.Errorf("blockValid(vol %d, lba %d, acked %d, issued %d) = %v", c.vol, c.lba, c.acked, c.issued, got)
		}
	}
}

func TestCPUBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"biza/internal/core.(*Core).writeCommon"}, "core"},
		{[]string{"runtime.memmove", "biza/internal/zns.(*Device).Write"}, "zns"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "biza/internal/sim.(*Engine).push"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"biza/internal/ghostcache.(*Cache).Touch"}, "core"},
		{[]string{"main.roundGCRandWrite.func1", "biza/internal/sim.(*Engine).Step"}, "harness"},
		{[]string{"biza/internal/metrics.(*Histogram).Record"}, "other"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := cpuBucket(c.stack); got != c.want {
			t.Errorf("cpuBucket(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "fleet_sharded", "--trace", "2"},
		{"--workload", "fleet_sharded", "--seconds", "0"},
		{"--workload", "fleet_sharded", "extra"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

// TestStandaloneLargeCommands feeds the standalone device timings the
// largest command sizes a ZRWA window allows, so the device must be sized
// from the demand rather than a fixed zone count.
func TestStandaloneLargeCommands(t *testing.T) {
	sizes := []int64{64, 64, 16, 1}
	for _, viaQueue := range []bool{true, false} {
		if _, err := deviceWriteNs(3, sizes, viaQueue); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := znsReadNs(3, sizes); err != nil {
		t.Fatal(err)
	}
}
