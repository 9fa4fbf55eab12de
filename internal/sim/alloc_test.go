package sim

import (
	"runtime"
	"testing"
)

// The allocation contract of estimation: transient state comes from the
// package pools, so a warm estimate allocates nothing and a cold one
// allocates only what the segment table keeps.

// skipUnderRace skips pooled-path allocation counts, which the race
// detector's random sync.Pool discards would inflate.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
}

// TestWarmSegmentEstimateZeroAlloc: with every segment's samples in the
// table and the pools warm, a segment-mode Estimate allocates nothing.
func TestWarmSegmentEstimateZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	sm := modeSim(t, 20, 1, 31, EstimatorSegment)
	plans := testPlans(sm)
	estimate := func() {
		for _, p := range plans {
			if _, err := sm.Estimate(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	estimate() // fill the segment table and the pools
	if allocs := testing.AllocsPerRun(100, estimate); allocs != 0 {
		t.Fatalf("warm segment-mode Estimate allocates %v per frontier, want 0", allocs)
	}
}

// TestColdSampleFillAllocatesOnlyVector: filling a segment's samples
// allocates the sample vector it keeps and nothing else — streams and
// timing buffers come from the fill pool.
func TestColdSampleFillAllocatesOnlyVector(t *testing.T) {
	skipUnderRace(t)
	sm := modeSim(t, 20, 1, 31, EstimatorSegment)
	var segs []*segment
	for _, p := range testPlans(sm) {
		var cp compiledPlan
		if err := sm.compile(p, &cp); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, cp.segs...)
	}
	fill := func() {
		for _, sg := range segs {
			sg.samples = nil
			sm.segmentSamples(sg)
		}
	}
	fill() // warm the fill pool
	if allocs := testing.AllocsPerRun(20, fill); allocs != float64(len(segs)) {
		t.Fatalf("cold fills of %d segments allocate %v, want one sample vector each", len(segs), allocs)
	}
}

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFreshAnalyticEstimatePoolsScratch: on a fresh Simulator whose
// segments are built, an analytic Estimate allocates each segment's
// moments and nothing else — no evaluator and no moment scratch, which
// come from pools that outlive any one Simulator.
func TestFreshAnalyticEstimatePoolsScratch(t *testing.T) {
	skipUnderRace(t)
	plan := testPlans(modeSim(t, 20, 1, 31, EstimatorAnalytic))[1]
	run := func() (allocs uint64, segs int) {
		sm := modeSim(t, 20, 1, 31, EstimatorAnalytic)
		var cp compiledPlan
		if err := sm.compile(plan, &cp); err != nil { // build the segments uncounted
			t.Fatal(err)
		}
		allocs = mallocs(func() {
			if _, err := sm.Estimate(plan); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, len(cp.segs)
	}
	run() // warm the pools
	for i := 0; i < 5; i++ {
		if allocs, segs := run(); allocs != uint64(segs) {
			t.Fatalf("fresh analytic Estimate over %d segments allocates %d objects, want one moment record each", segs, allocs)
		}
	}
}
