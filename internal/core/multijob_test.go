package core

import (
	"testing"
	"time"

	"repro/internal/spec"
)

func TestRunMultiJobHyperband(t *testing.T) {
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 41)
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunMultiJob(brackets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Brackets) != len(brackets) {
		t.Fatalf("brackets = %d", len(res.Brackets))
	}
	var sum float64
	maxJCT := 0.0
	for i, b := range res.Brackets {
		if b.Actual.JCT <= 0 || b.Actual.Cost <= 0 {
			t.Fatalf("bracket %d: %+v", i, b.Actual)
		}
		sum += b.Actual.Cost
		if b.Actual.JCT > maxJCT {
			maxJCT = b.Actual.JCT
		}
	}
	if res.TotalCost != sum {
		t.Errorf("TotalCost %v != sum %v", res.TotalCost, sum)
	}
	// Concurrent execution: the multi-job's JCT is the slowest bracket,
	// not the sum.
	if res.JCT != maxJCT {
		t.Errorf("JCT %v != max bracket JCT %v", res.JCT, maxJCT)
	}
	if res.BestAccuracy <= 0 || res.BestConfig.Len() == 0 {
		t.Error("no global winner")
	}
	// The global winner is at least as good as every bracket's winner.
	for i, b := range res.Brackets {
		if b.Actual.BestAccuracy > res.BestAccuracy {
			t.Errorf("bracket %d beat the global winner", i)
		}
	}
}

func TestRunMultiJobValidation(t *testing.T) {
	e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 42)
	if _, err := e.RunMultiJob(nil); err == nil {
		t.Error("empty bracket list accepted")
	}
}

func TestRunMultiJobDeterministic(t *testing.T) {
	brackets, err := spec.Hyperband(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *MultiResult {
		e := table2Experiment(t, PolicyRubberBand, 20*time.Minute, 43)
		res, err := e.RunMultiJob(brackets)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.TotalCost != b.TotalCost || a.JCT != b.JCT || a.BestAccuracy != b.BestAccuracy {
		t.Fatal("multi-job not deterministic")
	}
}
