package trial

import "testing"

func TestPreemptLifecycle(t *testing.T) {
	tr := New(1, cfg())
	// Preempt is only legal while running.
	if err := tr.Preempt(); err == nil {
		t.Error("Preempt while pending succeeded")
	}
	if err := tr.Start(4, 2); err != nil {
		t.Fatal(err)
	}
	_ = tr.RecordIteration(0.5, 1)
	if err := tr.Preempt(); err != nil {
		t.Fatal(err)
	}
	if tr.State() != Paused || tr.GPUs() != 0 || tr.Nodes() != 0 {
		t.Fatalf("after preempt: state=%v gang=%d/%d", tr.State(), tr.GPUs(), tr.Nodes())
	}
	if err := tr.Preempt(); err == nil {
		t.Error("double Preempt succeeded")
	}
}

func TestRestoreTruncatesMetrics(t *testing.T) {
	tr := New(2, cfg())
	_ = tr.Start(1, 1)
	_ = tr.RecordIteration(0.3, 1)
	_ = tr.RecordIteration(0.4, 2)
	ck, err := tr.Checkpoint() // at iteration 2
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.RecordIteration(0.5, 3)
	_ = tr.RecordIteration(0.6, 4)
	if err := tr.Preempt(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if tr.CumIters() != 2 {
		t.Fatalf("CumIters = %d, want 2", tr.CumIters())
	}
	if tr.latest != (Metric{CumIters: 2, Accuracy: 0.4}) {
		t.Fatalf("latest metric = %+v, want the checkpoint's", tr.latest)
	}
	if acc, ok := tr.LatestAccuracy(); !ok || acc != 0.4 {
		t.Fatalf("latest = %v/%v", acc, ok)
	}
}

func TestRestoreAtZero(t *testing.T) {
	// Restore to a zero-iteration checkpoint (stage-0 preemption) wipes
	// everything.
	tr := New(3, cfg())
	_ = tr.Start(1, 1)
	ck, _ := tr.Checkpoint()
	_ = tr.RecordIteration(0.2, 1)
	_ = tr.Preempt()
	if err := tr.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if tr.CumIters() != 0 || tr.latest != (Metric{}) {
		t.Fatal("restore to zero left state behind")
	}
	if _, ok := tr.LatestAccuracy(); ok {
		t.Fatal("latest accuracy survives a zero restore")
	}
}

func TestCheckpointWhilePaused(t *testing.T) {
	tr := New(4, cfg())
	_ = tr.Start(1, 1)
	_ = tr.RecordIteration(0.7, 1)
	_ = tr.Pause()
	ck, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.CumIters != 1 || ck.Accuracy != 0.7 {
		t.Fatalf("checkpoint = %+v", ck)
	}
}

func TestResumeAfterRestoreRetrains(t *testing.T) {
	tr := New(5, cfg())
	_ = tr.Start(2, 1)
	ck, _ := tr.Checkpoint()
	for i := 0; i < 3; i++ {
		_ = tr.RecordIteration(0.1*float64(i+1), 0)
	}
	_ = tr.Preempt()
	_ = tr.Restore(ck)
	if err := tr.Start(4, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.RecordIteration(0.2*float64(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.CumIters() != 3 {
		t.Fatalf("retrained iters = %d, want 3", tr.CumIters())
	}
	if err := tr.Complete(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsNegativeProgress: a checkpoint with negative progress
// is refused and leaves the trial as it was.
func TestRestoreRejectsNegativeProgress(t *testing.T) {
	tr := New(1, cfg())
	_ = tr.Start(1, 1)
	_ = tr.RecordIteration(0.3, 1)
	_ = tr.Pause()
	if err := tr.Restore(Checkpoint{Trial: 1, CumIters: -3}); err == nil {
		t.Fatal("Restore to CumIters -3 succeeded")
	}
	if acc, ok := tr.LatestAccuracy(); tr.CumIters() != 1 || !ok || acc != 0.3 {
		t.Fatalf("after refused restore: CumIters %d, latest %v/%v", tr.CumIters(), acc, ok)
	}
}
