package placement

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// TestResetMatchesNew: a controller reset after epochs with removed and
// displaced trials places a random epoch sequence exactly as
// a new controller does, epoch by epoch.
func TestResetMatchesNew(t *testing.T) {
	script := func(c *Controller, seed uint64) []string {
		r := stats.NewRNG(seed)
		nodes := mkNodes(6, 4)
		var log []string
		for epoch := 0; epoch < 40; epoch++ {
			allocs := make([]int32, 12)
			for i := range allocs {
				allocs[i] = int32(r.Intn(5)) - 1
				if allocs[i] == 0 {
					allocs[i] = -1
				}
			}
			plan, err := c.Update(allocs, nodes[:3+r.Intn(4)])
			log = append(log, fmt.Sprint(plan, err))
			if victim := TrialID(r.Intn(12)); epoch%3 == 0 {
				c.Remove(victim)
			}
		}
		return append(log, fmt.Sprint(c.DrainOrder(nodes)))
	}
	want := script(NewController(4), 3)
	c := NewController(8)
	script(c, 11)
	c.Reset(4)
	if got := script(c, 3); !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("epoch %d on a reset controller: %s, new controller %s", i, got[i], want[i])
			}
		}
	}
}
