// Package fleet holds the kernel's population-scale tests: 2,000
// concurrent trials, each advanced by opcode dispatch with one
// iteration event and one watchdog pending at a time, the watchdog
// cancelled when its iteration fires. It is the schedule/cancel churn
// the executor's preemption machinery produces, at a much larger
// population than a real experiment.
package fleet

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/vclock"
)

const (
	trials   = 2000
	iters    = 5
	meanIter = 30.0  // seconds; each latency falls in (0.5, 1.5) x meanIter
	watchdog = 120.0 // seconds; outlives every iteration, so never fires
	seed     = 7
)

const (
	opIter uint8 = iota // one iteration completed
	opDog               // watchdog fired: the kernel lost an iteration event
)

type stats struct {
	events, cancels, stalls uint64
	peakPending             int
	finished                vclock.Time
}

// fleet keeps per-trial state in dense parallel arrays indexed by trial.
type fleet struct {
	clock *vclock.Clock
	disp  vclock.DispatchID
	left  []int32         // iterations remaining
	rng   []uint64        // splitmix64 state
	dog   []vclock.Handle // armed watchdog
	done  int
	stats
}

// newFleet schedules every trial's first iteration, staggered across one
// mean latency so start events do not all share a tick.
func newFleet(clock *vclock.Clock) *fleet {
	f := &fleet{
		clock: clock,
		left:  make([]int32, trials),
		rng:   make([]uint64, trials),
		dog:   make([]vclock.Handle, trials),
	}
	f.disp = clock.RegisterDispatcher(f.dispatch)
	for i := range f.left {
		f.left[i] = iters
		f.rng[i] = seed + uint64(i)*0x9e3779b97f4a7c15
		f.schedule(i, clock.Now()+vclock.Time(f.uniform(i)*meanIter))
	}
	return f
}

// uniform draws from [0, 1) on trial i's splitmix64 stream.
func (f *fleet) uniform(i int) float64 {
	f.rng[i] += 0x9e3779b97f4a7c15
	z := f.rng[i]
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

func (f *fleet) schedule(i int, end vclock.Time) {
	f.clock.AtOp(end, f.disp, opIter, int64(i), 0)
	f.dog[i] = f.clock.AtOp(end+watchdog, f.disp, opDog, int64(i), 0)
}

// dispatch is the whole per-event hot path; it allocates nothing.
func (f *fleet) dispatch(op uint8, a, _ int64) {
	f.events++
	i := int(a)
	if op == opDog {
		f.stalls++
		return
	}
	if f.clock.Cancel(f.dog[i]) {
		f.cancels++
	}
	if f.left[i]--; f.left[i] > 0 {
		f.schedule(i, f.clock.Now()+vclock.Time((0.5+f.uniform(i))*meanIter))
	} else if f.done++; f.done == trials {
		f.finished = f.clock.Now()
	}
}

// step executes one kernel event, tracking peak queue occupancy.
func (f *fleet) step(t *testing.T) {
	if p := f.clock.Pending(); p > f.peakPending {
		f.peakPending = p
	}
	if !f.clock.Step() {
		t.Fatal("queue drained before the fleet finished")
	}
}

func drive(t *testing.T, mk func() *vclock.Clock) stats {
	t.Helper()
	f := newFleet(mk())
	for f.done < trials {
		f.step(t)
	}
	return f.stats
}

func TestFleetCompletes(t *testing.T) {
	s := drive(t, vclock.New)
	if want := uint64(trials * iters); s.events != want {
		t.Fatalf("events = %d, want %d", s.events, want)
	}
	if s.stalls != 0 {
		t.Fatalf("%d watchdogs fired; the kernel lost iteration events", s.stalls)
	}
	if s.cancels != s.events {
		t.Fatalf("cancels = %d, want one per iteration event %d", s.cancels, s.events)
	}
	// Every trial holds an iteration and a watchdog concurrently.
	if s.peakPending < trials {
		t.Fatalf("peak pending %d never reached the population %d", s.peakPending, trials)
	}
}

func TestFleetDeterministic(t *testing.T) {
	if a, b := drive(t, vclock.New), drive(t, vclock.New); a != b {
		t.Fatalf("two identical runs diverged:\n  %+v\n  %+v", a, b)
	}
}

func TestFleetKernelEquivalence(t *testing.T) {
	if w, h := drive(t, vclock.New), drive(t, vclock.NewHeap); w != h {
		t.Fatalf("kernels diverged on the fleet workload:\n  wheel %+v\n  heap  %+v", w, h)
	}
}

func TestFleetSteadyStateAllocs(t *testing.T) {
	// Once the slab and wheel have grown to capacity (one full round of
	// iteration events), the event loop must allocate nothing.
	f := newFleet(vclock.New())
	for f.events < trials {
		f.step(t)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := f.events
	for f.done < trials {
		f.step(t)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 0 {
		t.Fatalf("steady state allocated %d objects over %d events; want 0", mallocs, f.events-start)
	}
}
