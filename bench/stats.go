package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two closest ranks (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (NaN for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters a pass reports per
// experiment.
type usage struct {
	cpu        time.Duration
	totalAlloc uint64
	heapAlloc  uint64
}

// readUsage reads the CPU and allocation counters, then the live heap.
// The forced collection runs after the CPU reading, so the phase that
// ends with it is not charged.
func readUsage() usage {
	u := usage{cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.totalAlloc = ms.TotalAlloc
	u.heapAlloc = liveHeap()
	return u
}

// liveHeap collects the garbage and returns the heap that is left.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
