package harness

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// budgetSeed and budgetRuns fix the scenario set the allocation budget
// is measured on: harness.Generate(budgetSeed, 0..budgetRuns-1).
const (
	budgetSeed = 3
	budgetRuns = 48
)

// The per-run allocation budget of the budget set: its measured
// allocations and bytes plus 5 % slack. A change that allocates more
// per experiment fails TestRunAllocationBudget; one that allocates less
// lowers these.
const (
	budgetAllocs = 37 * 105 / 100
	budgetBytes  = 5175 * 105 / 100
)

// budgetSet returns the budget scenarios and checks that they cover the
// replan controller on and off.
func budgetSet(t testing.TB) []Scenario {
	var scs []Scenario
	var seen [2]bool // [replan]
	for i := 0; i < budgetRuns; i++ {
		sc := Generate(budgetSeed, i)
		replan := 0
		if sc.ReplanEnabled {
			replan = 1
		}
		seen[replan] = true
		scs = append(scs, sc)
	}
	if seen != [2]bool{true, true} {
		t.Fatalf("budget set covers replan %v, want on and off", seen)
	}
	return scs
}

// runSet runs every scenario once.
func runSet(t testing.TB, scs []Scenario) {
	for _, sc := range scs {
		if _, err := RunScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
}

// exactAllocs runs the rest of the test on one P with the collector
// off: a pooled item then stays where the next Get finds it, and no
// collection empties a pool, so every run takes exactly its own
// allocations.
//
//rbvet:impure(GOMAXPROCS only pins an allocation count to one P; no scheduler state reaches a run)
func exactAllocs(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// TestRunAllocationBudget pins the allocations and bytes a run of the
// budget set takes per experiment, once the package pools are warm.
func TestRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	scs := budgetSet(t)
	exactAllocs(t)
	runSet(t, scs) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runSet(t, scs)
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / budgetRuns
	bytes := (after.TotalAlloc - before.TotalAlloc) / budgetRuns
	t.Logf("per run: %d allocations, %d bytes (budget %d, %d)", allocs, bytes, budgetAllocs, budgetBytes)
	if allocs > budgetAllocs || bytes > budgetBytes {
		t.Fatalf("a budget-set run takes %d allocations and %d bytes, budget %d and %d", allocs, bytes, budgetAllocs, budgetBytes)
	}
}

// BenchmarkRunScenario runs the budget set, one scenario per iteration
// in turn, and reports allocations per run.
func BenchmarkRunScenario(b *testing.B) {
	scs := budgetSet(b)
	runSet(b, scs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(scs[i%len(scs)]); err != nil {
			b.Fatal(err)
		}
	}
}
