package vclock

import (
	"fmt"
	"slices"
	"testing"
)

// TestResetMatchesNew: a clock reset with events pending, cancelled and
// fired and a dispatcher registered then runs a script exactly as a new
// clock does — the same firing order, handles, Seq and Now — and keeps
// none of the callbacks it held.
func TestResetMatchesNew(t *testing.T) {
	script := func(c *Clock) []string {
		var log []string
		id := c.RegisterDispatcher(func(op uint8, a, _ int64) {
			log = append(log, fmt.Sprintf("op%d/%d@%v", op, a, c.Now()))
		})
		var hs []Handle
		for i := 0; i < 24; i++ {
			at := Time(i * 7 % 5)
			hs = append(hs, c.AtOp(at, id, uint8(i%3), int64(i), 0))
			c.At(at, func() { log = append(log, fmt.Sprintf("fn%d@%v", i, c.Now())) })
		}
		for i := 0; i < len(hs); i += 3 {
			c.Cancel(hs[i])
		}
		c.Run(2)
		c.After(1, func() { log = append(log, "after") })
		c.Run(0)
		return append(log, fmt.Sprintf("handles=%v seq=%d now=%v pending=%d", hs, c.Seq(), c.Now(), len(c.heap)))
	}
	want := script(New())
	c := New()
	script(c)
	c.At(c.Now()+3, func() {})
	c.AtOp(c.Now()+4, 0, 1, 2, 3)
	c.Reset()
	if c.Now() != 0 || c.Seq() != 0 || len(c.heap) != 0 || len(c.disp) != 0 {
		t.Fatalf("reset clock: now %v seq %d pending %d dispatchers %d, want all zero", c.Now(), c.Seq(), len(c.heap), len(c.disp))
	}
	if slices.ContainsFunc(c.events[:cap(c.events)], func(e event) bool { return e.fn != nil }) ||
		slices.ContainsFunc(c.disp[:cap(c.disp)], func(d Dispatcher) bool { return d != nil }) {
		t.Fatal("reset clock still holds a callback")
	}
	if got := script(c); !slices.Equal(got, want) {
		t.Fatalf("reset clock ran\n%v\nnew clock ran\n%v", got, want)
	}
}
