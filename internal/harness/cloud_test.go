package harness

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/planner"
	"repro/internal/trace"
)

// TestOneCloudModel: a run's provider, its planning Simulator and the
// scenario hold one cloud profile, faults and restore latency included,
// and the executor pays exactly the profile's restore. On a noise-free
// model, every trial start that restores a checkpoint — each trial of a
// stage after the first, and each preemption recovery — ends its first
// iteration RestoreSeconds plus one iteration latency after it started,
// and every other start one iteration latency after.
func TestOneCloudModel(t *testing.T) {
	sc := paperScenario(planner.PolicyRubberBand, 30*60, 4)
	sc.Model.IterNoiseStd = 0
	sc.Profile.RestoreSeconds = 7
	sc.Profile.Faults = cloud.FaultModel{PreemptionMeanSeconds: 150}
	r, err := StartScenario(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if got := r.ws.plan.Cloud(); got != sc.Profile {
		t.Fatalf("Simulator prices against %+v, scenario profile %+v", got, sc.Profile)
	}
	if got := r.provider.Profile(); got != sc.Profile {
		t.Fatalf("provider simulates %+v, scenario profile %+v", got, sc.Profile)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Preemptions == 0 {
		t.Fatal("no preemption occurred")
	}

	// A start's first iteration ends at start + restore + latency, in
	// the clock's own arithmetic; a later start of the same trial
	// (after a preemption) supersedes it.
	type start struct {
		at, restore     float64
		gpus, nodes, st int
	}
	pending := map[int]start{}
	restored := map[int]bool{}
	checked := [2]int{} // starts without and with a restore
	for _, e := range a.Recorder.Events() {
		switch e.Kind {
		case trace.KindRestore:
			restored[e.Trial] = true
		case trace.KindTrialStart:
			s := start{at: float64(e.At), gpus: e.GPUs, nodes: e.Nodes, st: e.Stage}
			if restored[e.Trial] {
				s.restore = sc.Profile.RestoreSeconds
			}
			if s.st > 0 && s.restore == 0 {
				t.Fatalf("trial %d started stage %d without a restore", e.Trial, s.st)
			}
			pending[e.Trial] = s
			delete(restored, e.Trial)
		case trace.KindTrialIter:
			s, ok := pending[e.Trial]
			if !ok {
				continue
			}
			delete(pending, e.Trial)
			lat := sc.Model.IterLatencyMean(sc.Model.BaseBatch, s.gpus, s.nodes)
			if want := s.at + s.restore + lat; float64(e.At) != want {
				t.Fatalf("trial %d (stage %d) started at %v ended its first iteration at %v, want %v (restore %v + latency %v)",
					e.Trial, s.st, s.at, e.At, want, s.restore, lat)
			}
			if s.restore > 0 {
				checked[1]++
			} else {
				checked[0]++
			}
		}
	}
	if checked[0] == 0 || checked[1] == 0 {
		t.Fatalf("checked %d starts without a restore and %d with one, want both", checked[0], checked[1])
	}
}
