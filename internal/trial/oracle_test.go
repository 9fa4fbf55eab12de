package trial

import (
	"fmt"
	"testing"

	"repro/internal/stats"
	"repro/internal/vclock"
)

// refTrial is the history-keeping trial Trial replaced: it records every
// metric and truncates the history on Restore. It is the oracle for the
// latest-metric-only Trial, whose answers must match it.
type refTrial struct {
	id       ID
	state    State
	cumIters int
	metrics  []Metric
}

func (t *refTrial) Start(gpus, nodes int) error {
	if t.state != Pending && t.state != Paused {
		return fmt.Errorf("start from %v", t.state)
	}
	if gpus < 1 || nodes < 1 || nodes > gpus {
		return fmt.Errorf("invalid gang")
	}
	t.state = Running
	return nil
}

func (t *refTrial) RecordIteration(accuracy float64, at vclock.Time) error {
	if t.state != Running {
		return fmt.Errorf("record while %v", t.state)
	}
	t.cumIters++
	t.metrics = append(t.metrics, Metric{CumIters: t.cumIters, Accuracy: accuracy, At: at})
	return nil
}

func (t *refTrial) Pause() error {
	if t.state != Running {
		return fmt.Errorf("pause while %v", t.state)
	}
	t.state = Paused
	return nil
}

// Preempt has Pause's transitions; only the trace tells them apart.
func (t *refTrial) Preempt() error { return t.Pause() }

func (t *refTrial) Terminate() error {
	if t.state == Completed {
		return fmt.Errorf("terminate after completion")
	}
	t.state = Terminated
	return nil
}

func (t *refTrial) Restore(ck Checkpoint) error {
	if t.state != Paused || ck.Trial != t.id || ck.CumIters < 0 || ck.CumIters > t.cumIters {
		return fmt.Errorf("bad restore")
	}
	t.cumIters = ck.CumIters
	kept := t.metrics[:0]
	for _, m := range t.metrics {
		if m.CumIters <= ck.CumIters {
			kept = append(kept, m)
		}
	}
	t.metrics = kept
	return nil
}

func (t *refTrial) LatestAccuracy() (float64, bool) {
	if len(t.metrics) == 0 {
		return 0, false
	}
	return t.metrics[len(t.metrics)-1].Accuracy, true
}

func (t *refTrial) Checkpoint() (Checkpoint, error) {
	if t.state != Running && t.state != Paused {
		return Checkpoint{}, fmt.Errorf("checkpoint while %v", t.state)
	}
	acc, _ := t.LatestAccuracy()
	return Checkpoint{Trial: t.id, CumIters: t.cumIters, Accuracy: acc}, nil
}

// TestTrialMatchesHistoryOracle drives Trial and refTrial through the
// same random operation sequences and compares every answer. Restore
// uses the latest checkpoint the sequence took, as the executor's Store
// keeps only the latest one per trial, or a zero checkpoint before any
// was taken.
func TestTrialMatchesHistoryOracle(t *testing.T) {
	rng := stats.NewRNG(25)
	for seq := 0; seq < 500; seq++ {
		got, want := New(7, cfg()), &refTrial{id: 7}
		latest := Checkpoint{Trial: 7}
		for step := 0; step < 60; step++ {
			var gotErr, wantErr error
			op := rng.Intn(7)
			switch op {
			case 0:
				gotErr, wantErr = got.Start(2, 1), want.Start(2, 1)
			case 1, 2: // iterations dominate, as in a run
				acc := rng.Float64()
				gotErr, wantErr = got.RecordIteration(acc, vclock.Time(step)), want.RecordIteration(acc, vclock.Time(step))
			case 3:
				var gck, wck Checkpoint
				gck, gotErr = got.Checkpoint()
				wck, wantErr = want.Checkpoint()
				if gck != wck {
					t.Fatalf("seq %d step %d: Checkpoint %+v, oracle %+v", seq, step, gck, wck)
				}
				if gotErr == nil {
					latest = gck
				}
			case 4:
				gotErr, wantErr = got.Pause(), want.Pause()
			case 5:
				gotErr, wantErr = got.Preempt(), want.Preempt()
			case 6:
				if rng.Intn(8) == 0 {
					gotErr, wantErr = got.Terminate(), want.Terminate()
				} else {
					gotErr, wantErr = got.Restore(latest), want.Restore(latest)
				}
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seq %d step %d op %d: error %v, oracle %v", seq, step, op, gotErr, wantErr)
			}
			gAcc, gOK := got.LatestAccuracy()
			wAcc, wOK := want.LatestAccuracy()
			if got.State() != want.state || got.CumIters() != want.cumIters || gAcc != wAcc || gOK != wOK {
				t.Fatalf("seq %d step %d op %d: state %v iters %d latest %v/%v, oracle %v %d %v/%v",
					seq, step, op, got.State(), got.CumIters(), gAcc, gOK, want.state, want.cumIters, wAcc, wOK)
			}
		}
	}
}
