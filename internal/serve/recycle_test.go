package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/model"
)

// zooSubs returns n submissions cycling through the zoo models, stage
// shapes and both estimators, so runs of different sizes follow each
// other on the same working sets.
func zooSubs(tenant string, n int) []Submission {
	shapes := [][][2]int{{{8, 2}, {4, 2}, {2, 4}}, {{4, 1}, {2, 1}}, {{16, 1}, {8, 2}, {4, 2}, {2, 3}}, {{3, 2}}}
	zoo := model.Zoo()
	subs := make([]Submission, n)
	for i := range subs {
		subs[i] = Submission{
			Tenant: tenant, Model: zoo[i%len(zoo)].Name,
			Stages: shapes[i%len(shapes)],
			Seed:   uint64(100 + i), MaxGPUs: 8, DeadlineFactor: 1.2 + 0.4*float64(i%3),
		}
		if i%3 == 2 {
			subs[i].Estimator = "analytic"
		}
	}
	return subs
}

// exactAllocs runs the rest of the test on one P with the collector
// off: a pooled working set then stays where the next run's Get finds
// it, and no collection empties the pool, so each experiment takes
// exactly its own allocations.
//
//rbvet:impure(GOMAXPROCS only pins an allocation count to one P; no scheduler state reaches a run)
func exactAllocs(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// The served-run allocation budget: the measured allocations and bytes
// per experiment of a warm Server running zooSubs, submission to done,
// plus 5 % slack. A serve path that stops releasing its runs' working
// sets takes several times the bytes and fails it.
const (
	servedBudgetAllocs = 52 * 105 / 100
	servedBudgetBytes  = 5955 * 105 / 100
)

// TestServedRunAllocationBudget pins what a warm server allocates per
// experiment: registry record, feed, driver, plan, run and digest.
func TestServedRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const n = 48
	s, err := NewServer(Config{Capacity: 64, Quota: Quota{MaxQueued: 2 * n, MaxLive: 4, MaxGPUs: 32}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	subs := zooSubs("budget", n)
	serve := func() {
		for _, sub := range subs {
			exp, err := s.reg.Submit(sub, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.pump()
			exp.Wait()
			if st := exp.State(); st != StateDone {
				t.Fatalf("%s ended %v", exp.ID, st)
			}
		}
		s.Drain()
	}
	exactAllocs(t)
	serve() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / n
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("per experiment: %d allocations, %d bytes (budget %d, %d)", allocs, bytes, servedBudgetAllocs, servedBudgetBytes)
	if allocs > servedBudgetAllocs || bytes > servedBudgetBytes {
		t.Fatalf("a served experiment takes %d allocations and %d bytes, budget %d and %d", allocs, bytes, servedBudgetAllocs, servedBudgetBytes)
	}
}

// TestConcurrentRecycledRunsMatchReplay: experiments of every zoo model
// and several shapes, submitted over HTTP by concurrent tenants onto a
// small cluster, hand their working sets to each other across driver
// goroutines (under -race in make test-race and test-serve); every done
// digest equals its offline replay's.
func TestConcurrentRecycledRunsMatchReplay(t *testing.T) {
	const (
		tenants   = 4
		perTenant = 12
	)
	s, ts := newTestServer(t, Config{
		Capacity: 12,
		Quota:    Quota{MaxQueued: perTenant, MaxLive: 3, MaxGPUs: 8},
	})
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for _, sub := range zooSubs(fmt.Sprintf("tenant-%d", ti), perTenant) {
				sub.Seed += uint64(1000 * ti)
				if resp, body := postSub(t, ts, sub); resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("%s: %d %s", sub.Tenant, resp.StatusCode, body)
				}
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Drain()
	exps := s.reg.All()
	if len(exps) != tenants*perTenant {
		t.Fatalf("%d experiments registered, want %d", len(exps), tenants*perTenant)
	}
	for _, e := range exps {
		tup, ok := e.Tuple()
		if !ok {
			t.Fatalf("%s did not complete: %+v", e.ID, e.StatusIn(s.reg))
		}
		if _, err := VerifyReplay(tup); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
}
