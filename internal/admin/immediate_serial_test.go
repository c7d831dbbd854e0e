package admin_test

import (
	"testing"

	"biza/internal/admin"
	"biza/internal/blockdev"
	"biza/internal/stack"
)

// TestImmediateJobKeepsPacedJobsSerial is the regression test for
// immediate kinds (set_failed, crash) submitted while a paced replace
// runs: the immediate job must complete on its own without taking or
// releasing the serial slot, so the queued second replace stays pending
// until the first one finishes.
func TestImmediateJobKeepsPacedJobsSerial(t *testing.T) {
	p, err := stack.New(stack.KindBIZA, stack.Options{ZNS: stack.BenchZNS(8)})
	if err != nil {
		t.Fatal(err)
	}
	orc := admin.New(p)
	blk := make([]byte, 8*p.Dev.BlockSize())
	for lba := int64(0); lba < 512; lba += 8 {
		p.Dev.Write(lba, 8, blk, func(res blockdev.WriteResult) {})
	}
	p.Eng.Run()

	id1, _ := orc.Submit(admin.KindReplace, admin.Params{Device: 0, StripesPerStep: 1, StepGapNanos: 1_000_000})
	id2, _ := orc.Submit(admin.KindReplace, admin.Params{Device: 1, StripesPerStep: 1, StepGapNanos: 1_000_000})
	p.Eng.RunUntil(p.Eng.Now() + 10_000)
	j1, _ := orc.Job(id1)
	j2, _ := orc.Job(id2)
	if j1.State != admin.StateRunning || j2.State != admin.StatePending {
		t.Fatalf("setup: job1=%s job2=%s, want running/pending", j1.State, j2.State)
	}
	imm, _ := orc.Submit(admin.KindSetFailed, admin.Params{Device: 2, Failed: false})
	ji, _ := orc.Job(imm)
	if ji.State != admin.StateDone || ji.StartedAt == 0 || ji.FinishedAt < ji.StartedAt {
		t.Fatalf("immediate job = %+v, want done with timestamps", ji)
	}
	j1, _ = orc.Job(id1)
	j2, _ = orc.Job(id2)
	if j1.State != admin.StateRunning || j2.State != admin.StatePending {
		t.Fatalf("after immediate: job1=%s job2=%s, want running/pending (serial-queue invariant broken)", j1.State, j2.State)
	}
	p.Eng.Run()
	j1, _ = orc.Job(id1)
	j2, _ = orc.Job(id2)
	if j1.State != admin.StateDone || j2.State != admin.StateDone {
		t.Fatalf("final: job1=%s err=%q job2=%s err=%q, want both done", j1.State, j1.Err, j2.State, j2.Err)
	}
	if j2.StartedAt < j1.FinishedAt {
		t.Fatalf("job2 started at %d before job1 finished at %d", j2.StartedAt, j1.FinishedAt)
	}
}
