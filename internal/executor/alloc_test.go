package executor

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TestSteadyStateIterationAllocs pins the training hot path: once a
// trial is running and the trace columns are warm, completing an
// iteration (opIterEnd: metering, accuracy observation, trace record,
// scheduling the next iteration) must allocate nothing beyond amortized
// slice growth. A per-iteration Sprintf or map clone reintroduced
// anywhere on that path fails it.
func TestSteadyStateIterationAllocs(t *testing.T) {
	const (
		perRun = 1000
		runs   = 5
	)
	h := newHarness(t, cloud.PerFunction, 0, 0, 1)
	s, err := spec.New(spec.Stage{Trials: 1, Iters: 100 + (runs+1)*perRun + 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig(t, h, s, sim.Uniform(2, 1), quietModel(), 1)
	cfg.Trace = trace.New()
	job, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := job.Trials()[0]
	for tr.CumIters() < 100 {
		if !h.clock.Step() {
			t.Fatal("clock drained before the trial started iterating")
		}
	}
	before := tr.CumIters()
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			h.clock.Step()
		}
	})
	if got, want := tr.CumIters()-before, (runs+1)*perRun; got != want {
		t.Fatalf("stepped %d iterations, want %d: events other than opIterEnd ran", got, want)
	}
	if per := allocs / perRun; per >= 0.05 {
		t.Fatalf("%.3f allocations per steady-state iteration event, want < 0.05", per)
	}
}

// BenchmarkWavedStage runs one stage of 32 trials through 8 GPU slots,
// so trials train in four waves, each finishing trial handing its slot
// to the next in the queue: the executor's per-iteration path (metering,
// the accuracy observation, the trace) and a placement epoch per
// hand-off. It reports the time per trial-iteration.
func BenchmarkWavedStage(b *testing.B) {
	s, err := spec.New(spec.Stage{Trials: 32, Iters: 20})
	if err != nil {
		b.Fatal(err)
	}
	iters := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := newHarness(b, cloud.PerFunction, 0, 0, 1)
		cfg := runConfig(b, h, s, sim.Uniform(8, 1), quietModel(), uint64(i))
		b.StartTimer()
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range res.Trials {
			iters += tr.CumIters()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
}
