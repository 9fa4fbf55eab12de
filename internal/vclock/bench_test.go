package vclock

import (
	"fmt"
	"testing"
)

// benchBacklogs are the standing event populations the benchmarks run
// against: 32 is the most events any real experiment holds pending at
// once, 128k a deep heap that makes the O(log n) sift cost visible.
var benchBacklogs = []int{32, 128 << 10}

// benchFill pre-loads a clock with n pending opcode events spread over
// the n milliseconds after offset.
func benchFill(c *Clock, id DispatchID, n int, offset Time) {
	for i := 0; i < n; i++ {
		at := c.Now() + offset + Time(1+(i*7919)%n)*0.001
		c.AtOp(at, id, 0, int64(i), 0)
	}
}

func nopDispatcher(op uint8, a, b int64) {}

// perBacklog runs f as a sub-benchmark for each of benchBacklogs.
func perBacklog(b *testing.B, f func(b *testing.B, n int)) {
	for _, n := range benchBacklogs {
		b.Run(fmt.Sprintf("backlog=%d", n), func(b *testing.B) { f(b, n) })
	}
}

// BenchmarkSchedule measures steady-state event scheduling into a
// standing backlog: each iteration fires the backlog's earliest event
// and schedules its replacement at a spread-out time within the
// backlog's window, so the backlog stays constant instead of growing
// with b.N and each new event lands at a varying depth.
func BenchmarkSchedule(b *testing.B) {
	perBacklog(b, func(b *testing.B, n int) {
		c := New()
		id := c.RegisterDispatcher(nopDispatcher)
		benchFill(c, id, n, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Step()
			c.AtOp(c.Now()+Time(1+(i*7919)%n)*0.001, id, 0, 0, 0)
		}
	})
}

// BenchmarkFire measures the schedule→fire round trip through the
// zero-alloc opcode dispatch path, ahead of a standing backlog parked
// far enough out that no iteration count reaches it.
func BenchmarkFire(b *testing.B) {
	perBacklog(b, func(b *testing.B, n int) {
		c := New()
		id := c.RegisterDispatcher(nopDispatcher)
		benchFill(c, id, n, 1e9)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AtOp(c.Now()+0.0005, id, 0, 0, 0)
			c.Step()
		}
	})
}

// TestDispatchAllocs pins the full schedule→fire→dispatch cycle through
// AtOp at zero allocations per event — the property the executor hot
// loop depends on — both on an otherwise empty queue and behind a warm
// standing backlog of populationScale events.
func TestDispatchAllocs(t *testing.T) {
	for _, backlog := range []int{0, populationScale} {
		c := New()
		var fired int64
		id := c.RegisterDispatcher(func(op uint8, a, b int64) { fired += a })
		// Warm the slab and heap.
		for i := 0; i < 64; i++ {
			c.AtOp(c.Now()+Time(i)*0.001, id, 0, 1, 0)
		}
		c.Run(0)
		// The backlog sits beyond the measured window (2000 events of
		// 0.5 ms each), so every measured Step fires a measured event.
		for i := 0; i < backlog; i++ {
			c.AtOp(c.Now()+60+Time(i)*0.001, id, 0, 0, 0)
		}
		allocs := testing.AllocsPerRun(2000, func() {
			c.AtOp(c.Now()+0.0005, id, 0, 1, 0)
			if !c.Step() {
				t.Fatal("no event to fire")
			}
		})
		if allocs != 0 {
			t.Fatalf("dispatch path allocates %.1f objects/event behind a %d-event backlog, want 0", allocs, backlog)
		}
		if fired == 0 {
			t.Fatal("dispatcher never ran")
		}
		if len(c.heap) != backlog {
			t.Fatalf("pending = %d, want the %d-event backlog", len(c.heap), backlog)
		}
	}
}
