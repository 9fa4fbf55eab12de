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
// (time, sequence). Schedule, cancel and fire are O(log n) in the
// number of pending events, which in a real experiment is a few dozen
// at most. Cancel removes the event eagerly, so the heap holds only
// pending events and pops them in exactly (time, sequence) order.
//
// Events are stored in a slab indexed by small integer handles; firing
// an event performs no heap allocation. Callbacks come in two forms:
// closures (At, After) for control-plane convenience, and pre-resolved
// opcode dispatch (RegisterDispatcher, AtOp) for hot loops that must
// not allocate per event — the stats.Lat opcode pattern applied
// to event scheduling.
//
// Virtual time is expressed in float64 seconds. The kernel is
// single-threaded by design: callbacks run on the caller's goroutine,
// and all state they touch needs no locking.
package vclock

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration converts t to a time.Duration for presentation at package
// boundaries.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}

// String formats the time as mm:ss.mmm for logs.
func (t Time) String() string {
	total := float64(t)
	m := int(total) / 60
	s := total - float64(m*60)
	return fmt.Sprintf("%02d:%06.3f", m, s)
}

// event is one slab slot: a scheduled callback and its heap position.
// Slots are reused through a free list; gen increments on every release
// so stale handles cannot cancel a recycled slot.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func() // closure payload (nil for opcode events)
	a,
	b int64 // opcode arguments
	next int32  // free-list link as slab index + 1 (0 end)
	pos  int32  // heap position while pending
	disp int32  // dispatcher id (-1 for closure events)
	gen  uint32 // handle generation, bumped on release
	op   uint8  // opcode
}

// Handle identifies a scheduled event without allocating. The zero
// Handle is invalid. Handles stay safe across slot reuse: cancelling a
// fired or already-cancelled event is a no-op returning false, because
// its generation no longer matches the slot's.
type Handle struct {
	ref int32 // slab index + 1; 0 = no event
	gen uint32
}

// Valid reports whether h refers to some scheduled event (it may have
// fired since).
func (h Handle) Valid() bool { return h.ref != 0 }

// Timer is a handle to a scheduled event; Stop cancels it.
type Timer struct {
	c *Clock
	h Handle
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was still pending.
func (t Timer) Stop() bool {
	if t.c == nil {
		return false
	}
	return t.c.Cancel(t.h)
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
// drops every callback it held, and it hands out the same handles, in
// the same order, as a new clock would: a slot is claimed by appending
// to the emptied slab, exactly as on a fresh one.
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

// Pending returns the number of events still queued.
func (c *Clock) Pending() int { return len(c.heap) }

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
func (c *Clock) At(at Time, fn func()) Timer {
	h := c.schedule(at, fn, -1, 0, 0, 0)
	return Timer{c: c, h: h}
}

// After schedules fn to run d seconds after the current time. Negative d
// panics.
func (c *Clock) After(d float64, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative delay %v", d))
	}
	return c.At(c.now+Time(d), fn)
}

// AtOp schedules an opcode event at absolute virtual time at: when it
// fires, the registered dispatcher id receives (op, a, b). Unlike At,
// AtOp allocates nothing — it is the scheduling half of the zero-alloc
// dispatch path.
//
//rbvet:noalloc
func (c *Clock) AtOp(at Time, id DispatchID, op uint8, a, b int64) Handle {
	return c.schedule(at, nil, int32(id), op, a, b)
}

// finite reports whether t is a real instant: neither NaN nor ±Inf.
func finite(t Time) bool {
	return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0)
}

// schedule validates, claims a slab slot, and enqueues.
func (c *Clock) schedule(at Time, fn func(), disp int32, op uint8, a, b int64) Handle {
	if at < c.now {
		panic(fmt.Sprintf("vclock: scheduling at %v before now %v", at, c.now))
	}
	if !finite(at) {
		panic(fmt.Sprintf("vclock: invalid time %v", at))
	}
	idx := c.alloc()
	e := &c.events[idx]
	e.at, e.seq = at, c.seq
	e.fn, e.disp, e.op, e.a, e.b = fn, disp, op, a, b
	c.seq++
	c.push(idx)
	return Handle{ref: idx + 1, gen: e.gen}
}

// alloc claims a slab slot from the free list, growing the slab when it
// is exhausted.
func (c *Clock) alloc() int32 {
	if c.free > 0 {
		idx := c.free - 1
		c.free = c.events[idx].next
		return idx
	}
	return c.grow()
}

// grow appends a fresh slab slot. Kept out of alloc so the steady-state
// schedule path stays allocation-free once the slab has warmed up.
func (c *Clock) grow() int32 {
	c.events = append(c.events, event{})
	return int32(len(c.events) - 1)
}

// release returns a slot to the free list and invalidates handles to it.
func (c *Clock) release(idx int32) {
	e := &c.events[idx]
	e.fn = nil
	e.gen++
	e.next = c.free
	c.free = idx + 1
}

// Cancel cancels the event h refers to if it is still pending. It
// reports whether the event was cancelled. O(log n).
//
//rbvet:noalloc
func (c *Clock) Cancel(h Handle) bool {
	idx := h.ref - 1
	if idx < 0 || int(idx) >= len(c.events) || c.events[idx].gen != h.gen {
		return false
	}
	c.remove(c.events[idx].pos)
	c.release(idx)
	return true
}

// Step pops and executes the earliest event, advancing Now to its time.
// It reports whether an event was executed.
//
//rbvet:noalloc
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	idx := c.heap[0]
	c.remove(0)
	e := &c.events[idx]
	c.now = e.at
	fn, disp, op, a, b := e.fn, e.disp, e.op, e.a, e.b
	c.release(idx)
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
func (c *Clock) Run(horizon Time) int {
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
func (c *Clock) Advance(d float64) {
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

// push adds a freshly scheduled event to the heap. The append grows the
// heap only until it has held the run's peak pending count.
func (c *Clock) push(idx int32) {
	i := int32(len(c.heap))
	c.heap = append(c.heap, idx)
	c.events[idx].pos = i
	c.up(i)
}

// remove deletes heap position i, moving the tail into the hole and
// restoring the heap order around it.
func (c *Clock) remove(i int32) {
	n := int32(len(c.heap)) - 1
	c.swap(i, n)
	c.heap = c.heap[:n]
	if i < n {
		c.down(i)
		c.up(i)
	}
}

// less orders heap positions i and j by their events' (at, seq): the
// kernel's total firing order.
func (c *Clock) less(i, j int32) bool {
	a, b := &c.events[c.heap[i]], &c.events[c.heap[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *Clock) swap(i, j int32) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	c.events[h[i]].pos = i
	c.events[h[j]].pos = j
}

func (c *Clock) up(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.less(i, p) {
			return
		}
		c.swap(i, p)
		i = p
	}
}

func (c *Clock) down(i int32) {
	n := int32(len(c.heap))
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && c.less(r, m) {
			m = r
		}
		if !c.less(m, i) {
			return
		}
		c.swap(i, m)
		i = m
	}
}
