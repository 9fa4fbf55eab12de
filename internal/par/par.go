// Package par provides the bounded fork-join helper harness.RunBatch
// fans independent scenarios out with.
//
// The helpers here deliberately expose an index-addressed contract: work is
// identified by a dense integer range, each index is visited exactly once,
// and callers write results into index-addressed storage. Combined with
// per-index deterministic RNG streams (stats.RNG.Stream) this makes
// parallel output bit-identical to serial output at any worker count — the
// scheduling order can vary freely because no result depends on it, and
// every reduction happens afterwards in fixed index order.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(i) for every i in [0, n), fanning the calls across at
// most workers goroutines, and returns once all calls have completed.
// workers (after clamping to n) <= 1 runs serially on the calling
// goroutine. ForEach guarantees each index is visited exactly once but
// promises nothing about order or goroutine assignment; callers that need
// a deterministic result must write into index-addressed storage and
// reduce in fixed index order after ForEach returns.
//
//rbvet:impure(goroutine fan-out; each index runs exactly once and results are index-addressed, so scheduling order cannot leak)
func ForEach(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
