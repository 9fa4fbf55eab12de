package par

import (
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEachIndexOnce checks the exactly-once contract across a
// range of worker counts, including workers > n and the serial path.
func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			visits := make([]int64, n)
			ForEach(n, workers, func(i int) {
				atomic.AddInt64(&visits[i], 1)
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForEachIndexAddressedWrites is a race-detector target: concurrent
// writes into index-addressed storage must be safe and complete before
// ForEach returns.
func TestForEachIndexAddressedWrites(t *testing.T) {
	const n = 500
	out := make([]int, n)
	ForEach(n, 8, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestForEachConcurrentCalls exercises several ForEach pools running at
// once: nested fan-outs each complete every index.
func TestForEachConcurrentCalls(t *testing.T) {
	var total int64
	ForEach(10, 4, func(int) {
		ForEach(20, 4, func(int) {
			atomic.AddInt64(&total, 1)
		})
	})
	if total != 200 {
		t.Fatalf("nested ForEach ran %d inner calls, want 200", total)
	}
}
