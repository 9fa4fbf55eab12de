package sim

import (
	"slices"

	"repro/internal/stats"
)

// slabFirst is the number of requests a slab's first chunk holds; each
// later chunk holds twice as many as the one before it. slabChunks
// bounds the chunk count: 24 doublings hold 2^27 requests, far past any
// table that fits in memory.
const (
	slabFirst  = 8
	slabChunks = 24
)

// segTable is one Simulator's segment table, kept for the Simulator's
// whole life and emptied by each Init and Reset: the key index, the
// segment records and the moments they refer to, the profile's
// iteration distribution per per-trial share, and the plan memo. Both
// indexes are epoch-stamped open-addressing tables (see index), and
// records and moments are carved from slabs; all of them, and the
// memo's columns, keep their capacity, so a re-initialised Simulator's
// table fills without allocating and resets in time independent of the
// largest table it ever held.
//
// The table links its parts by handles, never pointers: the index maps
// a key to its record's ref, and a record refers to its moments by ref
// into their slab, as a compiled plan does (see compiledPlan). So the
// index, the moments and every compiled plan are pointer-free: storing
// into them takes no write barrier and emptying them clears nothing.
// The one pointer a record can hold is a TRAIN latency that boxes its
// distribution, which reset clears.
type segTable struct {
	index index[segKey, ref]
	segs  slab[segment]
	moms  slab[segMoment]
	// plans is the plan memo's index: a hash of a plan's canonical
	// allocations (see planHash) maps to the newest entry with that
	// hash, and each entry links to the previous one, so a collision
	// costs a comparison of allocations rather than a wrong answer.
	// Entries are numbered in insertion order, and each keeps its
	// canonical allocations in the allocs column.
	plans   index[planKey, int32]
	entries []planEntry
	allocs  []int32
	// shares[per-1] is the profile's iteration latency at per GPUs per
	// trial (dist nil, hasMean false: not yet asked for). buildSegment
	// compiles a segment's TRAIN latency from it and meanLats reads its
	// means, so the profile builds each distribution once per table.
	// full counts the leading shares whose means are known to be filled.
	shares []iterShare
	full   int
}

// planKey is a plan memo key: the hash of a plan's canonical
// allocations.
type planKey uint64

// hash is the key itself, already a hash.
func (k planKey) hash() uint64 { return uint64(k) }

// planEntry is one memoized whole-plan estimate: its canonical
// allocations are allocs[off:off+n] of the table, and prev numbers the
// previous entry with the same hash (-1: none).
type planEntry struct {
	off, n int32
	prev   int32
	est    Estimate
}

// planHash hashes a plan's canonical allocations (FNV-1a over their
// 32-bit words).
func planHash(allocs []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, a := range allocs {
		h = (h ^ uint64(uint32(a))) * 1099511628211
	}
	return h
}

// plan returns the memoized estimate of the plan with canonical
// allocations allocs, whose hash is h.
func (t *segTable) plan(h uint64, allocs []int32) (Estimate, bool) {
	head, ok := t.plans.get(planKey(h))
	if !ok {
		return Estimate{}, false
	}
	return t.chain(head, allocs)
}

// chain walks the memo entries with one hash, newest first from entry i,
// for the one whose canonical allocations are allocs.
func (t *segTable) chain(i int32, allocs []int32) (Estimate, bool) {
	for ; i >= 0; i = t.entries[i].prev {
		if e := &t.entries[i]; slices.Equal(t.allocs[e.off:e.off+e.n], allocs) {
			return e.est, true
		}
	}
	return Estimate{}, false
}

// storePlan memoizes est for the plan with canonical allocations allocs,
// whose hash is h, unless an estimate is already stored: the first
// write wins.
func (t *segTable) storePlan(h uint64, allocs []int32, est Estimate) {
	head, found := t.plans.put(planKey(h))
	prev := int32(-1)
	if found {
		if _, ok := t.chain(*head, allocs); ok {
			return
		}
		prev = *head
	}
	t.entries = append(t.entries, planEntry{off: int32(len(t.allocs)), n: int32(len(allocs)), prev: prev, est: est})
	t.allocs = append(t.allocs, allocs...)
	*head = int32(len(t.entries) - 1)
}

// iterShare is one per-trial share's iteration distribution and its
// mean. meanLats fills the mean alone (hasMean), a segment build the
// distribution as well; the mean is the distribution's either way.
type iterShare struct {
	dist    stats.Dist
	mean    float64
	hasMean bool
}

// reset empties the table for its Simulator's next job. Both indexes
// empty in O(1) (see index.reset), and the slabs rewind. Records,
// moments and memo entries are overwritten before they are read, so the
// only storage cleared is what holds a pointer the kept table must not
// keep alive: a record's TRAIN latency when it boxes a distribution,
// and the share column's distributions.
func (t *segTable) reset() {
	t.index.reset()
	t.plans.reset()
	t.entries, t.allocs = t.entries[:0], t.allocs[:0]
	for i := 0; i < t.segs.chunksUsed(); i++ {
		used := t.segs.usedOf(i)
		for j := range used {
			if used[j].train.Boxed() {
				used[j].train = stats.Lat{}
			}
		}
	}
	t.segs.rewind()
	t.moms.rewind()
	clear(t.shares)
	t.shares, t.full = t.shares[:0], 0
}

// share returns the entry for per GPUs per trial, growing the column to
// hold it.
func (t *segTable) share(per int) *iterShare {
	if per > len(t.shares) {
		if per > cap(t.shares) {
			t.shares = append(t.shares[:cap(t.shares)], make([]iterShare, per-cap(t.shares))...)
		}
		t.shares = t.shares[:per]
	}
	return &t.shares[per-1]
}

// slab hands out runs of T carved from chunks it keeps. A chunk is
// never moved or shrunk, so a run stays valid until rewind; rewind makes
// every chunk available again without freeing any. The chunk directory
// is an array, so a new chunk is the slab's only allocation.
type slab[T any] struct {
	chunks [slabChunks][]T
	// n counts the chunks; cur is the chunk being carved and off its
	// first free slot.
	n, cur, off int
}

// ref is a handle to a value carved from a slab: its chunk in the top
// refChunkBits bits and its offset in the chunk below them, plus one, so
// the zero ref is no value. Element k of a run taken at h is at h+k.
// Chunks never move, so a ref resolves to the same value until rewind.
type ref uint32

// refOffBits is the width of a ref's offset: a chunk may hold up to
// 2^27 values, as many as slabChunks doublings hold in all.
const refOffBits = 27

// take returns a run of n values and its ref, each value holding
// whatever it held last: callers overwrite a run before reading it. A
// request that does not fit the current chunk moves on to the next one,
// and when none is left the slab adds a chunk of n·slabFirst·2^k values,
// k being the number of chunks it already has.
func (sl *slab[T]) take(n int) ([]T, ref) {
	for ; sl.cur < sl.n; sl.cur, sl.off = sl.cur+1, 0 {
		if c := sl.chunks[sl.cur]; sl.off+n <= len(c) {
			run := c[sl.off : sl.off+n : sl.off+n]
			h := sl.ref(sl.off)
			sl.off += n
			return run, h
		}
	}
	sl.chunks[sl.n] = make([]T, n*slabFirst<<sl.n)
	sl.n++
	sl.off = n
	return sl.chunks[sl.cur][:n:n], sl.ref(0)
}

// ref returns the ref of offset off in the current chunk.
func (sl *slab[T]) ref(off int) ref {
	if off >= 1<<refOffBits {
		panic("sim: slab chunk too large for a ref")
	}
	return ref(sl.cur<<refOffBits|off) + 1
}

// at returns the value h refers to.
func (sl *slab[T]) at(h ref) *T {
	h--
	return &sl.chunks[h>>refOffBits][h&(1<<refOffBits-1)]
}

// chunksUsed returns how many chunks hold taken values.
func (sl *slab[T]) chunksUsed() int {
	if sl.cur < sl.n && sl.off > 0 {
		return sl.cur + 1
	}
	return sl.cur
}

// usedOf returns the taken prefix of chunk i < chunksUsed(). A chunk
// before the current one counts whole: a run that did not fit its tail
// left that tail as rewind found it.
func (sl *slab[T]) usedOf(i int) []T {
	if i == sl.cur {
		return sl.chunks[i][:sl.off]
	}
	return sl.chunks[i]
}

// rewind makes every chunk available again.
func (sl *slab[T]) rewind() { sl.cur, sl.off = 0, 0 }
