package vclock

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	if c.Step() {
		t.Fatal("Step on empty clock returned true")
	}
	// The zero value needs no constructor: its slab, free list and heap
	// all start empty and grow on first use.
	fired := 0
	c.At(2, func() { fired++ })
	c.At(1, func() { fired++ })
	if !c.Step() || fired != 1 || len(c.heap) != 1 {
		t.Fatalf("step on zero clock: fired %d, pending = %d", fired, len(c.heap))
	}
	c.At(3, func() { fired++ }) // reuses the fired event's slot
	if n := c.Run(0); n != 2 || fired != 3 || c.Now() != 3 {
		t.Fatalf("zero clock ran %d events, fired %d, now %v", n, fired, c.Now())
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestAdvanceRejectsNonFinite: Advance(NaN) would compare every event as
// "not after target" and step without bound, and Advance(+Inf) would
// leave Now at +Inf where every later At panics. Both must panic up
// front, leaving the clock untouched.
func TestAdvanceRejectsNonFinite(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		c := New()
		fired := false
		c.At(5, func() { fired = true })
		mustPanic(t, fmt.Sprintf("Advance(%v)", d), func() { c.Advance(d) })
		if fired || c.Now() != 0 || len(c.heap) != 1 {
			t.Fatalf("Advance(%v) moved the clock: fired=%v now=%v pending=%d", d, fired, c.Now(), len(c.heap))
		}
	}
	c := New()
	c.Advance(math.MaxFloat64)
	mustPanic(t, "Advance past the largest finite time", func() { c.Advance(math.MaxFloat64) })
}

// TestRunRejectsNaNHorizon: a NaN horizon compares false against every
// bound, so Run(NaN) would silently run without limit.
func TestRunRejectsNaNHorizon(t *testing.T) {
	c := New()
	c.At(1, func() {})
	mustPanic(t, "Run(NaN)", func() { c.Run(Time(math.NaN())) })
	if len(c.heap) != 1 {
		t.Fatalf("Run(NaN) fired events: pending = %d", len(c.heap))
	}
}

func TestEventOrdering(t *testing.T) {
	c := New()
	var order []int
	c.At(3, func() { order = append(order, 3) })
	c.At(1, func() { order = append(order, 1) })
	c.At(2, func() { order = append(order, 2) })
	c.Run(0)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != 3 {
		t.Fatalf("final time %v, want 3", c.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(5, func() { order = append(order, i) })
	}
	c.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	c := New()
	c.At(10, func() {
		c.After(5, func() {
			if c.Now() != 15 {
				t.Errorf("nested After fired at %v, want 15", c.Now())
			}
		})
	})
	c.Run(0)
	if c.Now() != 15 {
		t.Fatalf("final time %v, want 15", c.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.At(10, func() {})
	c.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	c.At(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	c.After(-1, func() {})
}

func TestRunHorizon(t *testing.T) {
	c := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	n := c.Run(3)
	if n != 3 {
		t.Fatalf("Run(3) executed %d events, want 3", n)
	}
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if len(c.heap) != 2 {
		t.Fatalf("pending = %d, want 2", len(c.heap))
	}
}

func TestRunUntil(t *testing.T) {
	c := New()
	count := 0
	for i := 1; i <= 10; i++ {
		c.At(Time(i), func() { count++ })
	}
	ok := c.RunUntil(func() bool { return count >= 4 })
	if !ok {
		t.Fatal("RunUntil reported failure")
	}
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
}

func TestRunUntilExhausted(t *testing.T) {
	c := New()
	c.At(1, func() {})
	if c.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil true with unsatisfiable condition")
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	fired := false
	c.At(5, func() { fired = true })
	c.Advance(3)
	if fired || c.Now() != 3 {
		t.Fatalf("after Advance(3): fired=%v now=%v", fired, c.Now())
	}
	c.Advance(3)
	if !fired || c.Now() != 6 {
		t.Fatalf("after Advance(6): fired=%v now=%v", fired, c.Now())
	}
}

func TestOpcodeDispatch(t *testing.T) {
	c := New()
	type call struct {
		op   uint8
		a, b int64
		at   Time
	}
	var got []call
	id := c.RegisterDispatcher(func(op uint8, a, b int64) {
		got = append(got, call{op, a, b, c.Now()})
	})
	c.AtOp(2, id, 7, 10, 20)
	c.AtOp(1, id, 3, 30, 40)
	c.Run(0)
	want := []call{{3, 30, 40, 1}, {7, 10, 20, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %d calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	if s := Time(65.5).String(); s != "01:05.500" {
		t.Errorf("Time(65.5) = %q", s)
	}
}

func TestTimeDuration(t *testing.T) {
	d := Time(1.5).Duration()
	if d.Seconds() != 1.5 {
		t.Errorf("duration %v != 1.5s", d)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestQuickEventsFireInOrder(t *testing.T) {
	f := func(times []uint16) bool {
		c := New()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			c.At(at, func() { fired = append(fired, at) })
		}
		c.Run(0)
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Now never decreases across any sequence of events.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(times []uint16) bool {
		c := New()
		last := Time(-1)
		ok := true
		for _, raw := range times {
			c.At(Time(raw), func() {
				if c.Now() < last {
					ok = false
				}
				last = c.Now()
			})
		}
		c.Run(0)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdvanceZeroIsBounded(t *testing.T) {
	// Regression: Advance(0) at time 0 must run events at exactly t=0 and
	// stop — it must not degenerate into an unbounded Run(0) when a
	// callback chain keeps scheduling future events (e.g. spot preemption
	// with automatic replacement).
	c := New()
	var rearm func()
	fired := 0
	rearm = func() {
		fired++
		c.After(1, rearm) // self-renewing future event
	}
	c.At(0, rearm)
	c.At(0, func() { fired += 100 })
	c.Advance(0)
	if fired != 101 {
		t.Fatalf("fired = %d, want exactly the t=0 events", fired)
	}
	if c.Now() != 0 {
		t.Fatalf("now = %v", c.Now())
	}
	// The future chain is still pending, untouched.
	if len(c.heap) == 0 {
		t.Fatal("future event dropped")
	}
}

// Duration converts t to a time.Duration for presentation at package
// boundaries.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}
