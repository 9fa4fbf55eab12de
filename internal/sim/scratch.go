package sim

import (
	"sync"

	"repro/internal/stats"
)

// Pooled scratch. Estimate and Breakdown run concurrently on one
// Simulator (a planner's workers score candidates in parallel), so each
// call needs scratch of its own for as long as it runs, and one per
// Simulator would not do; these pools are package-level and hand each
// call its own. No pooled value carries a result from one use to the
// next: each is fully overwritten before it is read, so pooling saves
// allocations and cannot change an estimate.
var (
	// estPool holds segment-mode Estimate's compiled plan, sample rows
	// and pricing columns.
	estPool = sync.Pool{New: func() any { return new(estScratch) }}
	// fillPool holds a sample fill's per-worker RNG and latency
	// buffers.
	fillPool = sync.Pool{New: func() any { return new(fillScratch) }}
	// evalPool holds analytic-mode Estimate's evaluators, rebound to the
	// calling Simulator on every use.
	evalPool = sync.Pool{New: func() any { return new(AnalyticEval) }}
)

// estScratch is one segment-mode estimate in flight: the plan resolved
// to segments and their sample rows, the per-draw columns summarize
// reduces, and priceSchedule's billing stack.
type estScratch struct {
	cp          compiledPlan
	jcts, costs []float64
	stack       []cohort
}

// release returns the scratch to the pool. Its compiled plan holds refs,
// not pointers, so nothing needs clearing.
func (es *estScratch) release() { estPool.Put(es) }

// fillSlot is one sampling worker's private stream and the buffer
// segment.eval draws a segment's INIT and TRAIN latencies into.
type fillSlot struct {
	rng stats.RNG
	lat []float64
}

// fillScratch holds one sample fill: the segment tuple's root stream and
// a slot per worker.
type fillScratch struct {
	base  stats.RNG
	slots []fillSlot
}

// draw fills v[k] with draw k of sg, whose Simulator's provisioning
// latencies are prov, on worker slot w's stream and buffer.
func (fs *fillScratch) draw(sg *segment, prov *provLats, v []segSample, w, k int) {
	sl := &fs.slots[w]
	fs.base.StreamInto(uint64(k), &sl.rng)
	v[k], sl.lat = sg.eval(prov, &sl.rng, sl.lat)
}

// resize returns s with length n, reusing its capacity when it suffices.
// Callers overwrite every element before reading it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
