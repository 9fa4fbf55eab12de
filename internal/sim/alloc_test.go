package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// The allocation contract of estimation: transient state is scratch the
// Simulator keeps from its first Init on, so a warm estimate allocates
// nothing and a cold one allocates only what the segment table keeps.

// exactAllocs runs the rest of the test on one P with the collector
// off, so that mallocs counts exactly what the code under test
// allocates: with one P, the world restart inside ReadMemStats has no
// idle P to wake, which under load can start an OS thread (five runtime
// allocations) inside the window.
//
//rbvet:impure(GOMAXPROCS only pins an allocation count to one P; no scheduler state reaches an estimate)
func exactAllocs(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestWarmSegmentEstimateZeroAlloc: with every segment's moments in the
// table, an estimate allocates nothing, whether the plan memo answers it
// (Estimate) or the moments do (estimate).
func TestWarmSegmentEstimateZeroAlloc(t *testing.T) {
	sm := stochasticSim(t)
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
	estimate() // fill the segment table
	if allocs := testing.AllocsPerRun(100, estimate); allocs != 0 {
		t.Fatalf("warm estimates allocate %v per frontier, want 0", allocs)
	}
}

// reinitSim returns stochasticSim(t)'s Simulator after a first job: it
// filled its table with every test plan's segments, moments and memo
// entry, and was then initialised in place for the same job, as an
// owner that keeps a Simulator re-initialises it.
func reinitSim(t *testing.T) *Simulator {
	sm := stochasticSim(t)
	for _, p := range testPlans(sm) {
		if _, err := sm.Estimate(p); err != nil {
			t.Fatal(err)
		}
	}
	initStochasticSim(t, sm)
	if sm.tab.index.n != 0 || sm.tab.plans.n != 0 {
		t.Fatalf("a re-initialised table indexes %d segments and %d plan hashes, want 0", sm.tab.index.n, sm.tab.plans.n)
	}
	return sm
}

// reinit initialises s in place for the job it already simulates, as an
// owner that keeps a Simulator does between jobs: its table is emptied
// and kept.
func reinit(t testing.TB, s *Simulator) {
	t.Helper()
	if err := s.Init(s.spec, s.profile, s.cloud); err != nil {
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
// plan-memo entry — no evaluator and no moment scratch, which Init sized
// for the job's stages. On a re-initialised Simulator's
// table it allocates nothing; on a new Simulator's four objects: the
// moment slab's first chunk, and the memo's first hash group, entry
// column and allocation column.
func TestFreshAnalyticEstimatePoolsScratch(t *testing.T) {
	exactAllocs(t)
	plan := testPlans(stochasticSim(t))[1]
	run := func(sm *Simulator) (allocs uint64, segs int) {
		segs = len(tableSegments(t, sm, []Plan{plan})) // build the segments uncounted
		allocs = mallocs(func() {
			if _, err := sm.Estimate(plan); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, segs
	}
	fresh := func() *Simulator { return stochasticSim(t) }
	for i := 0; i < 5; i++ {
		if allocs, segs := run(reinitSim(t)); allocs != 0 {
			t.Fatalf("analytic Estimate over %d segments on a re-initialised table allocates %d objects, want 0", segs, allocs)
		}
		if allocs, segs := run(fresh()); allocs != 4 {
			t.Fatalf("analytic Estimate over %d segments on a fresh table allocates %d objects, want 4: the moment slab's first chunk and the memo's first storage", segs, allocs)
		}
	}
}
