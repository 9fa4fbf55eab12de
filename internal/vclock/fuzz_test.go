package vclock

import "testing"

// FuzzKernelEquivalence feeds random kernel-exercise scripts (see
// runScript) to the kernel and fails on any violation of its
// specification: an event lost, duplicated, fired early, late or out of
// (time, sequence) order, or a bounded drain stopping at the wrong
// place.
func FuzzKernelEquivalence(f *testing.F) {
	// Seeds cover each opcode family: plain and spawning schedules,
	// opcode dispatch with and without watchdogs, far-future schedules,
	// advance windows, and the three drain modes.
	f.Add([]byte{0, 10, 0, 0, 20, 0, 5, 0, 0})
	f.Add([]byte{1, 1, 0, 1, 1, 0, 5, 2, 0})
	f.Add([]byte{2, 0xff, 0xff, 2, 1, 0, 4, 0xff, 0})
	f.Add([]byte{3, 0xff, 0xff, 3, 1, 0, 0, 5, 0, 5, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 0})
	f.Add([]byte{4, 64, 0, 2, 3, 0, 1, 9, 0, 4, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound per-input work; long scripts add no new structure
		}
		if _, err := runScript(data); err != nil {
			t.Fatal(err)
		}
	})
}
