package trial

import (
	"testing"

	"repro/internal/searchspace"
	"repro/internal/stats"
)

func cfg() searchspace.Config {
	return searchspace.MustNew(searchspace.Uniform{Key: "lr", Lo: 0.1, Hi: 0.1}).Sample(stats.NewRNG(1))
}

func TestLifecycleHappyPath(t *testing.T) {
	tr := New(3, cfg())
	if tr.ID() != 3 || tr.State() != Pending {
		t.Fatalf("new trial: id=%d state=%v", tr.ID(), tr.State())
	}
	if err := tr.Start(4, 1); err != nil {
		t.Fatal(err)
	}
	if tr.gpus != 4 || tr.Nodes() != 1 {
		t.Fatalf("gang = %d/%d", tr.gpus, tr.Nodes())
	}
	for i := 0; i < 3; i++ {
		if err := tr.RecordIteration(0.5+float64(i)*0.1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.CumIters() != 3 {
		t.Fatalf("CumIters = %d", tr.CumIters())
	}
	acc, ok := tr.LatestAccuracy()
	if !ok || acc != 0.7 {
		t.Fatalf("latest = %v/%v", acc, ok)
	}
	if err := tr.Pause(); err != nil {
		t.Fatal(err)
	}
	if tr.gpus != 0 {
		t.Fatal("paused trial retains workers")
	}
	if err := tr.Start(8, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Complete(); err != nil {
		t.Fatal(err)
	}
	if tr.State() != Completed {
		t.Fatalf("state = %v", tr.State())
	}
}

func TestIllegalTransitions(t *testing.T) {
	tr := New(0, cfg())
	if err := tr.RecordIteration(0.1, 0); err == nil {
		t.Error("RecordIteration while pending succeeded")
	}
	if err := tr.Pause(); err == nil {
		t.Error("Pause while pending succeeded")
	}
	if err := tr.Complete(); err == nil {
		t.Error("Complete while pending succeeded")
	}
	if err := tr.Start(0, 1); err == nil {
		t.Error("zero-GPU gang accepted")
	}
	if err := tr.Start(2, 3); err == nil {
		t.Error("nodes > gpus accepted")
	}
	if err := tr.Start(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(2, 1); err == nil {
		t.Error("double Start succeeded")
	}
	if err := tr.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Terminate(); err == nil {
		t.Error("Terminate after Complete succeeded")
	}
}

func TestTerminateFromAnyLiveState(t *testing.T) {
	for _, setup := range []func(*Trial){
		func(*Trial) {},
		func(tr *Trial) { _ = tr.Start(1, 1) },
		func(tr *Trial) { _ = tr.Start(1, 1); _ = tr.Pause() },
	} {
		tr := New(0, cfg())
		setup(tr)
		if err := tr.Terminate(); err != nil {
			t.Fatalf("Terminate from %v: %v", tr.State(), err)
		}
		if tr.State() != Terminated {
			t.Fatalf("state = %v", tr.State())
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	tr := New(7, cfg())
	_ = tr.Start(2, 1)
	_ = tr.RecordIteration(0.6, 5)
	ck, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Trial != 7 || ck.CumIters != 1 || ck.Accuracy != 0.6 {
		t.Fatalf("checkpoint %+v", ck)
	}
	// Checkpointing a pending trial fails.
	if _, err := New(8, cfg()).Checkpoint(); err == nil {
		t.Error("Checkpoint while pending succeeded")
	}
}

func TestStore(t *testing.T) {
	s := NewStore(0)
	if s.n != 0 {
		t.Fatal("new store not empty")
	}
	s.Put(Checkpoint{Trial: 1, CumIters: 5})
	s.Put(Checkpoint{Trial: 1, CumIters: 9}) // replaces
	s.Put(Checkpoint{Trial: 2, CumIters: 3})
	if s.n != 2 {
		t.Fatalf("Len = %d", s.n)
	}
	ck, ok := s.Get(1)
	if !ok || ck.CumIters != 9 {
		t.Fatalf("Get(1) = %+v/%v", ck, ok)
	}
	s.Delete(1)
	if _, ok := s.Get(1); ok {
		t.Fatal("deleted checkpoint still present")
	}
	if _, ok := s.Get(42); ok {
		t.Fatal("missing checkpoint found")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "pending", Running: "running", Paused: "paused",
		Terminated: "terminated", Completed: "completed",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// New returns a pending trial for the given configuration.
func New(id ID, config searchspace.Config) *Trial {
	t := new(Trial)
	t.Init(id, config)
	return t
}

// NewStore returns an empty checkpoint store sized for trials 0..n-1, so
// that storing their checkpoints never grows it. Other IDs are stored
// too, growing it on first use.
func NewStore(n int) *Store {
	s := new(Store)
	s.Reset(n)
	return s
}
