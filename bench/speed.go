package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark was calibrated on is shared, and ran the
// same code up to 2.4 times as slowly from minute to minute; every
// timing drifts with it. A fixed reference computation that uses only
// the standard library (JSON, maps, sorting: the same runtime paths the
// program leans on) slows down in step, so every window samples it and
// reports its timings at the nominal reference speed below. Over 720
// passes the logarithm of each timing followed the logarithm of the
// slowdown factor with correlation 0.95-0.98 and slope 0.93-1.11, the
// serve-edge latencies excepted (slope up to 1.4). The reference shares
// no code with the program under test, so a change to the program
// cannot move it.

// refNominal is the reference's median CPU time on the 2-vCPU Xeon VM
// the bounds in BENCHMARK.json were calibrated on.
const refNominal = 1300 * time.Microsecond

// probeEvery is how often a window samples the reference (about 3 % of
// the window's time).
const probeEvery = 50 * time.Millisecond

type refDoc struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Attrs map[string]string `json:"attrs"`
}

var refDocs = func() []refDoc {
	r := rand.New(rand.NewPCG(1, 2))
	docs := make([]refDoc, 40)
	for i := range docs {
		docs[i] = refDoc{ID: i, Name: fmt.Sprint("doc", i), Attrs: map[string]string{}}
		for k := 0; k < 20; k++ {
			docs[i].Vals = append(docs[i].Vals, r.Float64())
			docs[i].Attrs[fmt.Sprint("k", k)] = fmt.Sprint(r.Uint64())
		}
	}
	return docs
}()

// reference runs the reference computation once.
func reference() float64 {
	b, err := json.Marshal(refDocs)
	if err != nil {
		panic(err) // fixed, marshalable data
	}
	var back []refDoc
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	fold := map[string]float64{}
	var vals []float64
	for _, d := range back {
		for k, v := range d.Attrs {
			fold[k+v] += d.Vals[0]
		}
		vals = append(vals, d.Vals...)
	}
	slices.Sort(vals)
	return vals[len(vals)/2] + float64(len(fold))
}

// threadCPU is the calling thread's CPU time: unlike wall time it does
// not count waiting for a CPU while the program's own goroutines run.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// speed samples the reference on the goroutine driving a window.
type speed struct {
	next    time.Time
	samples []float64 // reference CPU time, ns
}

// probe samples the reference when probeEvery has passed since the last
// sample.
func (s *speed) probe() {
	now := time.Now()
	if now.Before(s.next) {
		return
	}
	s.next = now.Add(probeEvery)
	s.sample()
}

// sample runs the reference once and records its CPU time.
func (s *speed) sample() {
	runtime.LockOSThread()
	t0 := threadCPU()
	reference()
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	s.samples = append(s.samples, float64(d))
}

// factor is how much slower than nominal the machine ran during the
// window: 1 at nominal speed, 1.2 when the reference took 20 % longer.
// The machine flips between a fast and a slow state (about 2x apart),
// so the factor is the harmonic mean of the samples, the window's
// average speed, not their median, which jumps between the two states.
func (s *speed) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	inv := 0.0
	for _, x := range s.samples {
		inv += 1 / x
	}
	return float64(len(s.samples)) / inv / float64(refNominal)
}
