package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/vclock"
)

// refNotify is notify as it was before it filtered in place: the fired
// list swapped out, a fresh kept list, and waiters registered by fired
// callbacks appended after the kept ones.
func (m *Manager) refNotify() {
	var kept []waiter
	fired := m.waiters
	m.waiters = nil
	for _, w := range fired {
		if len(m.ready) >= w.target {
			w.fn()
		} else {
			kept = append(kept, w)
		}
	}
	m.waiters = append(kept, m.waiters...)
}

// notifyScript registers random waiters on m, some of whose callbacks
// register more, then grows the pool one node at a time, notifying with
// notify or refNotify, and returns the firing log and the targets left.
func notifyScript(seed uint64, ref bool) ([]string, []int) {
	r := stats.NewRNG(seed)
	m := &Manager{clock: vclock.New()}
	var log []string
	var add func(name string, depth int)
	add = func(name string, depth int) {
		target := 1 + r.Intn(8)
		m.WhenSize(target, func() {
			log = append(log, fmt.Sprintf("%s@%d", name, len(m.ready)))
			if depth < 2 && r.Intn(2) == 0 {
				for k := r.Intn(3); k >= 0; k-- {
					add(fmt.Sprintf("%s.%d", name, k), depth+1)
				}
			}
		})
	}
	for i := r.Intn(12); i >= 0; i-- {
		add(fmt.Sprint(i), 0)
	}
	for n := 1; n <= 8; n++ {
		m.ready = append(m.ready, &Node{ID: NodeID(n)})
		if ref {
			m.refNotify()
		} else {
			m.notify()
		}
	}
	var left []int
	for _, w := range m.waiters {
		left = append(left, w.target)
	}
	return log, left
}

// TestNotifyMatchesReference: filtering the waiters in place fires the
// same callbacks in the same order as the reference, and leaves the same
// waiters, in the same order, including those fired callbacks register.
func TestNotifyMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		gotLog, gotLeft := notifyScript(seed, false)
		wantLog, wantLeft := notifyScript(seed, true)
		if !slices.Equal(gotLog, wantLog) || !slices.Equal(gotLeft, wantLeft) {
			t.Fatalf("seed %d: fired %v, left %v; reference fired %v, left %v", seed, gotLog, gotLeft, wantLog, wantLeft)
		}
	}
}

// TestNotifyClearsFiredWaiters: the slots notify compacts away hold no
// callback, so a fired closure is not kept alive by the waiter list.
func TestNotifyClearsFiredWaiters(t *testing.T) {
	m := &Manager{clock: vclock.New()}
	for target := 1; target <= 4; target++ {
		m.WhenSize(target, func() {})
	}
	m.ready = append(m.ready, &Node{ID: 1}, &Node{ID: 2})
	m.notify()
	if len(m.waiters) != 2 {
		t.Fatalf("%d waiters left, want 2", len(m.waiters))
	}
	for _, w := range m.waiters[len(m.waiters):cap(m.waiters)] {
		if w.fn != nil {
			t.Fatal("a fired waiter's callback is still held")
		}
	}
}
