// Package vclock implements a deterministic discrete-event simulation
// kernel with a virtual clock.
//
// RubberBand's end-to-end experiments execute the real control plane —
// scheduler, placement controller, cluster manager — against a simulated
// cloud. Package vclock supplies the time substrate: an event queue
// ordered by (time, sequence) so that ties break deterministically in
// scheduling order, and a Run loop that advances virtual time to each
// event.
//
// The queue is a binary min-heap of slab indices ordered by exact
// (time, sequence). Schedule and fire are O(log n) in the number of
// pending events, which in a real experiment is a few dozen at most,
// and each sift moves a hole, one write per level. Events cannot be
// cancelled: a component that abandons one (the executor's stranded
// iterations) lets it fire and ignores it, so the heap tracks no
// positions.
//
// Events are stored in a slab reused through a free list; firing an
// event performs no heap allocation. Callbacks come in two forms:
// closures (At, After) for control-plane convenience, and pre-resolved
// opcode dispatch (RegisterDispatcher, AtOp) for hot loops that must
// not allocate per event.
//
// Virtual time is expressed in float64 seconds. The kernel is
// single-threaded by design: callbacks run on the caller's goroutine,
// and all state they touch needs no locking.
package vclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// String formats the time as mm:ss.mmm for logs.
func (t Time) String() string {
	total := float64(t)
	m := int(total) / 60
	s := total - float64(m*60)
	return fmt.Sprintf("%02d:%06.3f", m, s)
}

// event is one slab slot: a scheduled callback. Slots are reused
// through a free list.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func() // closure payload (nil for opcode events)
	a,
	b int64 // opcode arguments
	next int32 // free-list link as slab index + 1 (0 end)
	disp int32 // dispatcher id (-1 for closure events)
	op   uint8 // opcode
}

// Dispatcher is a pre-resolved opcode handler. Hot loops register one
// dispatcher up front and schedule (opcode, args) events through AtOp;
// firing such an event allocates nothing — no closure, no boxing.
type Dispatcher func(op uint8, a, b int64)

// DispatchID names a registered dispatcher on one clock.
type DispatchID int32

// Clock is a virtual clock with an event queue. The zero value is ready
// to use at time 0.
type Clock struct {
	now    Time
	seq    uint64
	events []event
	free   int32   // free-list head as slab index + 1 (0 none)
	heap   []int32 // pending slab indices, a min-heap by (at, seq)
	disp   []Dispatcher
}

// New returns a Clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Reset returns the clock to the state New gives — time zero, no events,
// no dispatchers — keeping the event slab's and the heap's capacity, so a
// recycled clock schedules its next run without growing them again. It
// drops every callback it held, and it claims slab slots in the same
// order as a new clock would: by appending to the emptied slab.
func (c *Clock) Reset() {
	clear(c.events)
	clear(c.disp)
	*c = Clock{events: c.events[:0], heap: c.heap[:0], disp: c.disp[:0]}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Seq returns the number of events ever scheduled on the clock — its
// scheduling cursor. Two identical runs have equal Seq at equal points,
// so control-plane snapshots capture it as part of the clock state.
func (c *Clock) Seq() uint64 { return c.seq }

// RegisterDispatcher adds d to the clock's dispatch table and returns
// its id for use with AtOp. Several components (one per executor job,
// say) can register independently on a shared clock.
func (c *Clock) RegisterDispatcher(d Dispatcher) DispatchID {
	if c.disp == nil {
		// Room for a provider's and a job's dispatchers at once.
		c.disp = make([]Dispatcher, 0, 2)
	}
	c.disp = append(c.disp, d)
	return DispatchID(len(c.disp) - 1)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics — it would mean causality violation in the
// simulation.
func (c *Clock) At(at Time, fn func()) {
	c.schedule(at, fn, -1, 0, 0, 0)
}

// After schedules fn to run d seconds after the current time. Negative d
// panics.
func (c *Clock) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative delay %v", d))
	}
	c.At(c.now+Time(d), fn)
}

// AtOp schedules an opcode event at absolute virtual time at: when it
// fires, the registered dispatcher id receives (op, a, b). Unlike At,
// AtOp allocates nothing — it is the scheduling half of the zero-alloc
// dispatch path.
//
//rbvet:noalloc
func (c *Clock) AtOp(at Time, id DispatchID, op uint8, a, b int64) {
	c.schedule(at, nil, int32(id), op, a, b)
}

// finite reports whether t is a real instant: neither NaN nor ±Inf.
func finite(t Time) bool {
	return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0)
}

// schedule validates, claims a slab slot from the free list, and
// enqueues. The appends grow the slab and the heap only until they have
// held the run's peak pending count.
func (c *Clock) schedule(at Time, fn func(), disp int32, op uint8, a, b int64) {
	if at < c.now {
		panic(fmt.Sprintf("vclock: scheduling at %v before now %v", at, c.now))
	}
	if !finite(at) {
		panic(fmt.Sprintf("vclock: invalid time %v", at))
	}
	idx := c.free - 1
	if idx >= 0 {
		c.free = c.events[idx].next
	} else {
		idx = int32(len(c.events))
		c.events = append(c.events, event{})
	}
	c.events[idx] = event{at: at, seq: c.seq, fn: fn, a: a, b: b, disp: disp, op: op}
	c.seq++
	c.heap = append(c.heap, idx)
	c.up(int32(len(c.heap)-1), idx)
}

// Step pops and executes the earliest event, advancing Now to its time.
// It reports whether an event was executed.
//
//rbvet:noalloc
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	idx, last := c.heap[0], c.heap[len(c.heap)-1]
	if c.heap = c.heap[:len(c.heap)-1]; len(c.heap) > 0 {
		c.down(last) // the last leaf fills the root's hole
	}
	e := &c.events[idx]
	c.now = e.at
	fn, disp, op, a, b := e.fn, e.disp, e.op, e.a, e.b
	e.fn, e.next, c.free = nil, c.free, idx+1 // the slot joins the free list
	if disp >= 0 {
		c.disp[disp](op, a, b)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains or until virtual time would
// exceed horizon (events at exactly horizon still run). It returns the
// number of events executed. A non-positive horizon means no limit; a
// NaN horizon panics.
//
//rbvet:noalloc
func (c *Clock) Run(horizon Time) int { //rbvet:ignore unreached — tests of cloud, cluster, executor and harness drive the clock with it
	if math.IsNaN(float64(horizon)) {
		//rbvet:ignore noalloc — cold path: a NaN horizon is a caller bug and ends the run
		panic("vclock: Run with NaN horizon")
	}
	n := 0
	for len(c.heap) > 0 && (horizon <= 0 || c.events[c.heap[0]].at <= horizon) {
		c.Step()
		n++
	}
	return n
}

// RunUntil executes events while cond() remains false, stopping as soon
// as cond() turns true (checked after each event) or the queue drains.
// It reports whether cond was satisfied.
func (c *Clock) RunUntil(cond func() bool) bool {
	if cond() {
		return true
	}
	for c.Step() {
		if cond() {
			return true
		}
	}
	return cond()
}

// Advance moves the clock forward by d seconds, executing any events
// that fall within the window (including events at exactly the current
// time when d is 0). It panics on negative d and on a target that is
// NaN or infinite. Unlike Run, Advance is always bounded — even at a
// target of 0 — so it is safe against self-renewing event chains such
// as spot preemption with automatic replacement.
func (c *Clock) Advance(d float64) { //rbvet:ignore unreached — tests of cloud and cluster advance the clock with it
	if d < 0 {
		panic("vclock: Advance with negative duration")
	}
	target := c.now + Time(d)
	if !finite(target) {
		panic(fmt.Sprintf("vclock: Advance(%v) to invalid time %v", d, target))
	}
	for len(c.heap) > 0 && c.events[c.heap[0]].at <= target {
		c.Step()
	}
	if c.now < target {
		c.now = target
	}
}

// less reports whether event x fires before event y: the kernel's total
// firing order, exact (at, seq).
func (c *Clock) less(x, y int32) bool {
	a, b := &c.events[x], &c.events[y]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up sifts event idx from the hole at heap position i toward the root,
// moving each later parent down into the hole, and writes idx where the
// hole stops.
//
//rbvet:noalloc
func (c *Clock) up(i, idx int32) {
	h := c.heap
	for i > 0 {
		p := (i - 1) / 2
		if !c.less(idx, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = idx
}

// down sifts event idx from a hole at the root toward the leaves,
// moving each earlier child up into the hole, and writes idx where the
// hole stops.
//
//rbvet:noalloc
func (c *Clock) down(idx int32) {
	h := c.heap
	n, i := int32(len(h)), int32(0)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && c.less(h[r], h[m]) {
			m = r
		}
		if !c.less(h[m], idx) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = idx
}
