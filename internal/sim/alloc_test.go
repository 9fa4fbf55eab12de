package sim

import (
	"runtime"
	"runtime/debug"
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

// exactAllocs runs the rest of the test on one P with the collector
// off, so that mallocs counts exactly what the code under test
// allocates. The pools the simulator draws scratch from keep an item in
// the P that put it, where a Get on another P does not look, and a
// collection empties them; either turns a warm pool cold between a
// test's warm-up and its window. With one P, the world restart inside
// ReadMemStats also has no idle P to wake, which under load can start
// an OS thread (five runtime allocations) inside the window.
//
//rbvet:impure(GOMAXPROCS only pins an allocation count to one P; no scheduler state reaches an estimate)
func exactAllocs(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestWarmSegmentEstimateZeroAlloc: with every segment's samples in the
// table and the pools warm, a segment-mode estimate allocates nothing,
// whether the plan memo answers it (Estimate) or it is recombined from
// the segments' samples (estimate).
func TestWarmSegmentEstimateZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	sm := modeSim(t, 20, 1, 31, EstimatorSegment)
	plans := testPlans(sm)
	estimate := func() {
		for _, p := range plans {
			if _, err := sm.Estimate(p); err != nil {
				t.Fatal(err)
			}
			if _, err := sm.estimate(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	estimate() // fill the segment table and the pools
	if allocs := testing.AllocsPerRun(100, estimate); allocs != 0 {
		t.Fatalf("warm segment-mode Estimate allocates %v per frontier, want 0", allocs)
	}
}

// reinitSim returns modeSim(t, 20, 1, 31, mode)'s Simulator after a
// first job: it filled its table with every test plan's segments, sample
// vectors and moments in segment mode, and was then initialised in place
// for mode, as an owner that keeps a Simulator re-initialises it.
func reinitSim(t *testing.T, mode EstimatorMode) *Simulator {
	sm := modeSim(t, 20, 1, 31, EstimatorSegment)
	e := sm.NewAnalyticEval()
	for _, p := range testPlans(sm) {
		if _, err := sm.Estimate(p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Estimate(p); err != nil {
			t.Fatal(err)
		}
	}
	e.Release()
	initModeSim(t, sm, 20, 1, 31, mode)
	if sm.tab.index.len() != 0 || sm.tab.plans.len() != 0 {
		t.Fatalf("a re-initialised table indexes %d segments and %d plan hashes, want 0", sm.tab.index.len(), sm.tab.plans.len())
	}
	return sm
}

// reinit initialises s in place for the job it already simulates, as an
// owner that keeps a Simulator does between jobs: its table is emptied
// and kept.
func reinit(t testing.TB, s *Simulator) {
	t.Helper()
	rng := s.root
	if err := s.Init(s.spec, s.profile, s.cloud, s.samples, &rng, WithWorkers(s.workers), WithEstimator(s.estimator)); err != nil {
		t.Fatal(err)
	}
}

// tableSegments builds the segments of plans in sm's table and returns
// their refs in plan order.
func tableSegments(t *testing.T, sm *Simulator, plans []Plan) []ref {
	t.Helper()
	var segs []ref
	for _, p := range plans {
		var cp compiledPlan
		if err := sm.compile(p, &cp); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, cp.segs...)
	}
	return segs
}

// TestColdSampleFillAllocatesOnlyVector: a segment's sample vector is
// the only storage its fill takes, and it comes from the table's sample
// slab — streams and timing buffers come from the fill pool. On a
// re-initialised Simulator's table cold fills allocate nothing; on a new
// Simulator's they allocate the slab's first chunk and nothing else.
func TestColdSampleFillAllocatesOnlyVector(t *testing.T) {
	skipUnderRace(t)
	exactAllocs(t)
	fill := func(sm *Simulator, segs []ref) uint64 {
		return mallocs(func() {
			for _, h := range segs {
				sm.segmentSamples(h)
			}
		})
	}
	sm := reinitSim(t, EstimatorSegment)
	segs := tableSegments(t, sm, testPlans(sm))
	if allocs := fill(sm, segs); allocs != 0 {
		t.Fatalf("cold fills of %d segments on a re-initialised table allocate %d, want 0", len(segs), allocs)
	}

	sm = modeSim(t, 20, 1, 31, EstimatorSegment)
	segs = tableSegments(t, sm, testPlans(sm)[1:2])
	if allocs, chunks := fill(sm, segs), sm.tab.samples.n; allocs != 1 || chunks != 1 {
		t.Fatalf("cold fills of %d segments on a fresh table allocate %d objects into %d chunks, want the one first chunk", len(segs), allocs, chunks)
	}
}

// mallocs returns the heap objects f allocates. MemStats.Mallocs counts
// the whole process; a test that calls it runs under exactAllocs.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFreshAnalyticEstimatePoolsScratch: on a fresh Simulator whose
// segments are built, an analytic Estimate takes storage only for each
// segment's moments, carved from the table's moment slab, and for its
// plan-memo entry — no evaluator and no moment scratch, which come from
// pools that outlive any one Simulator. On a re-initialised Simulator's
// table it allocates nothing; on a new Simulator's four objects: the
// moment slab's first chunk, and the memo's first hash group, entry
// column and allocation column.
func TestFreshAnalyticEstimatePoolsScratch(t *testing.T) {
	skipUnderRace(t)
	exactAllocs(t)
	plan := testPlans(modeSim(t, 20, 1, 31, EstimatorAnalytic))[1]
	run := func(sm *Simulator) (allocs uint64, segs int) {
		segs = len(tableSegments(t, sm, []Plan{plan})) // build the segments uncounted
		allocs = mallocs(func() {
			if _, err := sm.Estimate(plan); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, segs
	}
	fresh := func() *Simulator { return modeSim(t, 20, 1, 31, EstimatorAnalytic) }
	run(fresh()) // warm the evaluator pool
	for i := 0; i < 5; i++ {
		if allocs, segs := run(reinitSim(t, EstimatorAnalytic)); allocs != 0 {
			t.Fatalf("analytic Estimate over %d segments on a re-initialised table allocates %d objects, want 0", segs, allocs)
		}
		if allocs, segs := run(fresh()); allocs != 4 {
			t.Fatalf("analytic Estimate over %d segments on a fresh table allocates %d objects, want 4: the moment slab's first chunk and the memo's first storage", segs, allocs)
		}
	}
}
