package vclock

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// The fleet tests run the kernel at population scale: 2,000 concurrent
// trials, each advanced by opcode dispatch with one iteration event and
// one watchdog pending at a time, the watchdog cancelled when its
// iteration fires. It is the schedule/cancel churn the executor's
// preemption machinery produces, at a much larger population than a
// real experiment.

const (
	fleetTrials   = 2000
	fleetIters    = 5
	fleetMeanIter = 30.0  // seconds; each latency falls in [0.5, 1.5) x mean
	fleetWatchdog = 120.0 // seconds; outlives every iteration, so never fires
	fleetSeed     = 7
)

const (
	opIter uint8 = iota // one iteration completed
	opDog               // watchdog fired: the kernel lost an iteration event
)

type fleetStats struct {
	events, cancels, stalls uint64
	// reorders counts events that fired before an already-fired later one.
	reorders    uint64
	peakPending int
	finished    Time
}

// fleet keeps per-trial state in dense parallel arrays indexed by trial.
type fleet struct {
	clock *Clock
	disp  DispatchID
	left  []int32  // iterations remaining
	rng   []uint64 // splitmix64 state
	dog   []Handle // armed watchdog
	done  int
	fleetStats
}

// trialSeed is trial i's splitmix64 starting state.
func trialSeed(i int) uint64 { return fleetSeed + uint64(i)*0x9e3779b97f4a7c15 }

// uniform draws from [0, 1) on the splitmix64 stream at s.
func uniform(s *uint64) float64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

// newFleet schedules every trial's first iteration, staggered across one
// mean latency so start events do not all share an instant.
func newFleet(clock *Clock) *fleet {
	f := &fleet{
		clock: clock,
		left:  make([]int32, fleetTrials),
		rng:   make([]uint64, fleetTrials),
		dog:   make([]Handle, fleetTrials),
	}
	f.disp = clock.RegisterDispatcher(f.dispatch)
	for i := range f.left {
		f.left[i] = fleetIters
		f.rng[i] = trialSeed(i)
		f.schedule(i, clock.Now()+Time(uniform(&f.rng[i])*fleetMeanIter))
	}
	return f
}

func (f *fleet) schedule(i int, end Time) {
	f.clock.AtOp(end, f.disp, opIter, int64(i), 0)
	f.dog[i] = f.clock.AtOp(end+fleetWatchdog, f.disp, opDog, int64(i), 0)
}

// dispatch is the whole per-event hot path; it allocates nothing.
func (f *fleet) dispatch(op uint8, a, _ int64) {
	f.events++
	if now := f.clock.Now(); now < f.finished {
		f.reorders++
	} else {
		f.finished = now
	}
	i := int(a)
	if op == opDog {
		f.stalls++
		return
	}
	if f.clock.Cancel(f.dog[i]) {
		f.cancels++
	}
	if f.left[i]--; f.left[i] > 0 {
		f.schedule(i, f.clock.Now()+Time((0.5+uniform(&f.rng[i]))*fleetMeanIter))
	} else {
		f.done++
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

func drive(t *testing.T) fleetStats {
	t.Helper()
	f := newFleet(New())
	for f.done < fleetTrials {
		f.step(t)
	}
	return f.fleetStats
}

// predictFleet computes the fleet run's stats without a clock. Each
// trial's finish time is its own latency stream summed in firing order,
// with the same float operations the dispatcher performs, so the
// result is bit-exact. Every iteration fires and cancels its watchdog,
// no watchdog fires, and the initial load of one iteration plus one
// watchdog per trial is the peak, since each firing iteration replaces
// itself and its watchdog one for one.
func predictFleet() fleetStats {
	s := fleetStats{
		events:      fleetTrials * fleetIters,
		cancels:     fleetTrials * fleetIters,
		peakPending: 2 * fleetTrials,
	}
	for i := 0; i < fleetTrials; i++ {
		rng := trialSeed(i)
		end := Time(uniform(&rng) * fleetMeanIter)
		for k := 1; k < fleetIters; k++ {
			end += Time((0.5 + uniform(&rng)) * fleetMeanIter)
		}
		s.finished = max(s.finished, end)
	}
	return s
}

func TestFleetCompletes(t *testing.T) {
	s := drive(t)
	if want := uint64(fleetTrials * fleetIters); s.events != want {
		t.Fatalf("events = %d, want %d", s.events, want)
	}
	if s.stalls != 0 {
		t.Fatalf("%d watchdogs fired; the kernel lost iteration events", s.stalls)
	}
	if s.reorders != 0 {
		t.Fatalf("%d events fired out of time order", s.reorders)
	}
	if s.cancels != s.events {
		t.Fatalf("cancels = %d, want one per iteration event %d", s.cancels, s.events)
	}
	// Every trial holds an iteration and a watchdog concurrently.
	if s.peakPending < fleetTrials {
		t.Fatalf("peak pending %d never reached the population %d", s.peakPending, fleetTrials)
	}
}

func TestFleetDeterministic(t *testing.T) {
	if a, b := drive(t), drive(t); a != b {
		t.Fatalf("two identical runs diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestFleetKernelEquivalence holds the kernel's fleet run to the
// kernel-free calculation of the same workload, bit for bit.
func TestFleetKernelEquivalence(t *testing.T) {
	if got, want := drive(t), predictFleet(); got != want {
		t.Fatalf("kernel run differs from the kernel-free calculation:\n  kernel %+v\n  want   %+v", got, want)
	}
}

// TestFleetSteadyStateAllocs counts the steady-state event loop's heap
// allocations exactly.
//
//rbvet:impure(GOMAXPROCS only pins the measurement window to one P; no scheduler state reaches the clock)
func TestFleetSteadyStateAllocs(t *testing.T) {
	// Once the slab and heap have grown to capacity (one full round of
	// iteration events), the event loop must allocate nothing.
	f := newFleet(New())
	for f.events < fleetTrials {
		f.step(t)
	}
	// MemStats.Mallocs counts the whole process, so the window runs on
	// one P. ReadMemStats restarts the world by waking an idle P, and
	// when no idle thread is parked to run it, as under a parallel
	// `go test ./...`, the runtime starts one: its m, g0, signal stack
	// and two profiling stacks are five allocations inside the window.
	// With one P there is no idle P to wake.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := f.events
	for f.done < fleetTrials {
		f.step(t)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 0 {
		t.Fatalf("steady state allocated %d objects over %d events; want 0", mallocs, f.events-start)
	}
}
