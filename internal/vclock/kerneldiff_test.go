package vclock

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// fireRec is one observed event firing: which event, and the exact
// virtual time it ran at.
type fireRec struct {
	tag int
	at  Time
}

// scriptResult captures everything observable about a script run:
// the full firing log plus the clock's final externally visible state.
type scriptResult struct {
	fires   []fireRec
	now     Time
	pending int
	seq     uint64
	// peak is the largest number of events pending at once between
	// script ops; it is reported, not digested.
	peak int
}

// digest folds a result into an FNV-1a hash over the exact float bits
// of every firing, so "bit-identical" is literal.
func (r scriptResult) digest() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, f := range r.fires {
		mix(uint64(f.tag))
		mix(math.Float64bits(float64(f.at)))
	}
	mix(math.Float64bits(float64(r.now)))
	mix(uint64(r.pending))
	mix(r.seq)
	return h
}

// runScript interprets data as a deterministic kernel-exercise program
// against a fresh clock from mk. The byte stream decodes into triples
// (opcode byte, uint16 payload); the opcode space covers scheduling
// (near, same-tick, and far-future), opcode-dispatch scheduling,
// cancellation of both closure and opcode events, single steps, bounded
// Advance, horizon Run, and RunUntil — every public way to move the
// clock. An opcode event scheduled with an odd payload also arms a
// watchdog opcode event (logged with tag -1-tag) that the event cancels
// when it fires, the executor's schedule/cancel churn pattern.
// Interpretation depends only on data, so running the same script on
// the wheel and heap kernels must produce bit-identical results; the
// differential and fuzz suites assert exactly that.
func runScript(mk func() *Clock, data []byte) scriptResult {
	c := mk()
	var fires []fireRec
	var timers []Timer
	var ophs []Handle
	dogs := map[int64]Handle{}
	nextTag, peak := 0, 0
	const maxFires = 1 << 15
	id := c.RegisterDispatcher(func(op uint8, a, b int64) {
		if op == 1 {
			c.Cancel(dogs[a])
		}
		fires = append(fires, fireRec{tag: int(a), at: c.Now()})
	})
	schedule := func(delay float64, spawn bool) {
		tag := nextTag
		nextTag++
		at := c.Now() + Time(delay)
		timers = append(timers, c.At(at, func() {
			fires = append(fires, fireRec{tag, c.Now()})
			if spawn && len(fires) < maxFires {
				child := nextTag
				nextTag++
				// Child delay derives from the tag, so it is identical
				// across kernels; child%3==0 lands in the same tick.
				c.At(c.Now()+Time(child%3)*0.0004, func() {
					fires = append(fires, fireRec{child, c.Now()})
				})
			}
		}))
	}
	for len(data) >= 3 {
		op, arg := data[0], binary.LittleEndian.Uint16(data[1:3])
		data = data[3:]
		switch op % 8 {
		case 0: // schedule a closure event within ~2 minutes
			schedule(float64(arg)/512, false)
		case 1: // schedule a spawning closure event (fires schedule more)
			schedule(float64(arg)/512, true)
		case 2: // schedule an opcode event; also exercises far-future when arg is large
			tag := nextTag
			nextTag++
			at := c.Now() + Time(arg)*0.03
			ophs = append(ophs, c.AtOp(at, id, 1, int64(tag), 0))
			if arg&1 == 1 {
				dogs[int64(tag)] = c.AtOp(at+90, id, 2, int64(-1-tag), 0)
			}
		case 3: // schedule far in the future: high wheel levels / overflow
			schedule(float64(arg)*97.0, false)
		case 4: // cancel a closure timer
			if len(timers) > 0 {
				timers[int(arg)%len(timers)].Stop()
			}
		case 5: // cancel an opcode event via its raw handle
			if len(ophs) > 0 {
				c.Cancel(ophs[int(arg)%len(ophs)])
			}
		case 6: // advance a bounded window
			c.Advance(float64(arg) / 256)
		case 7: // mixed drains: step, horizon run, or RunUntil a fire quota
			switch arg % 3 {
			case 0:
				c.Step()
			case 1:
				c.Run(c.Now() + Time(arg)/128)
			default:
				target := len(fires) + int(arg%5)
				c.RunUntil(func() bool { return len(fires) >= target })
			}
		}
		if p := c.Pending(); p > peak {
			peak = p
		}
		if len(fires) > maxFires {
			break
		}
	}
	c.Run(0) // drain everything still pending
	return scriptResult{fires: fires, now: c.Now(), pending: c.Pending(), seq: c.Seq(), peak: peak}
}

// diffScripts runs one script on both kernels and reports the first
// divergence, if any.
func diffScripts(t *testing.T, data []byte) {
	t.Helper()
	w := runScript(New, data)
	h := runScript(NewHeap, data)
	if w.digest() != h.digest() {
		if len(w.fires) != len(h.fires) {
			t.Fatalf("kernel divergence: wheel fired %d events, heap %d", len(w.fires), len(h.fires))
		}
		for i := range w.fires {
			if w.fires[i] != h.fires[i] {
				t.Fatalf("kernel divergence at firing %d: wheel %+v, heap %+v", i, w.fires[i], h.fires[i])
			}
		}
		t.Fatalf("kernel divergence in final state: wheel{now=%v pending=%d seq=%d} heap{now=%v pending=%d seq=%d}",
			w.now, w.pending, w.seq, h.now, h.pending, h.seq)
	}
}

// populationScale is the concurrent event population the kernel tests
// hold at once: large enough that every wheel level and a deep heap are
// occupied while events fire and cancel.
const populationScale = 2048

// populationScript is a seeded script that schedules populationScale
// watchdogged opcode events (each cancels its watchdog when it fires)
// before draining any, interleaved with short advances so firing,
// cancelling and scheduling all happen at population scale.
func populationScript(seed uint64) []byte {
	var data []byte
	for i := 0; i < populationScale; i++ {
		seed += 0x9e3779b97f4a7c15
		z := (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		data = append(data, 2, byte(z)|1, byte(z>>8)) // odd payload: watchdogged
		if i%64 == 63 {
			data = append(data, 6, byte(z>>16), 0) // advance < 1 s
		}
	}
	return append(data, 7, 2, 0) // RunUntil a small fire quota
}

// TestKernelDifferentialRandomScripts drives both kernels through
// randomized schedule/cancel/advance scripts, plus one seeded
// population-scale script, and requires bit-identical firing logs, final
// time, and pending counts.
func TestKernelDifferentialRandomScripts(t *testing.T) {
	f := func(data []byte) bool {
		w := runScript(New, data)
		h := runScript(NewHeap, data)
		return w.digest() == h.digest()
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(f, cfg); err != nil {
		if ce, ok := err.(*quick.CheckError); ok && len(ce.In) == 1 {
			if data, ok := ce.In[0].([]byte); ok {
				diffScripts(t, data) // re-run for a precise divergence report
			}
		}
		t.Fatal(err)
	}

	pop := populationScript(7)
	diffScripts(t, pop)
	r := runScript(New, pop)
	if r.peak < populationScale {
		t.Fatalf("population script peaked at %d pending events, want >= %d", r.peak, populationScale)
	}
	for _, f := range r.fires {
		if f.tag < 0 {
			t.Fatalf("watchdog %d fired: its event was lost or reordered", -1-f.tag)
		}
	}
}

// TestSameTickFIFOAcrossCascade schedules interleaved batches at equal
// far-future times so the wheel must carry them through multiple
// cascade levels, and asserts both kernels fire every equal-time batch
// in exact schedule order.
func TestSameTickFIFOAcrossCascade(t *testing.T) {
	// 5000s → tick ≈ 5.2e9: level-5 insertion, cascading through every
	// level before firing. 5000+2^-21 s shares the quantized tick but has
	// a strictly larger float time, so it must fire after all 5000.0
	// events despite bucket interleaving.
	times := []Time{5000, 5000 + Time(math.Exp2(-21)), 71, 5000, 71, 5000 + Time(math.Exp2(-21))}
	perKernel(t, func(t *testing.T, mk func() *Clock) {
		c := mk()
		var got []int
		type key struct {
			at  Time
			seq int
		}
		var want []key
		for i, at := range times {
			i := i
			c.At(at, func() { got = append(got, i) })
			want = append(want, key{at, i})
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		c.Run(0)
		for i := range want {
			if got[i] != want[i].seq {
				t.Fatalf("fire order %v violates (time, schedule) order %v", got, want)
			}
		}
	})
}

// TestSameTickFIFOAcrossRunUntil stops mid-way through a batch of
// simultaneous events via RunUntil, schedules more events at that same
// instant, and requires the combined batch to still fire in global
// schedule order on both kernels.
func TestSameTickFIFOAcrossRunUntil(t *testing.T) {
	perKernel(t, func(t *testing.T, mk func() *Clock) {
		c := mk()
		var got []int
		for i := 0; i < 6; i++ {
			i := i
			c.At(9, func() { got = append(got, i) })
		}
		if !c.RunUntil(func() bool { return len(got) >= 3 }) {
			t.Fatal("RunUntil did not reach quota")
		}
		if c.Now() != 9 {
			t.Fatalf("paused at %v, want 9", c.Now())
		}
		// Late arrivals at the current instant must fire after the
		// original batch: larger sequence numbers, same time.
		for i := 6; i < 9; i++ {
			i := i
			c.At(9, func() { got = append(got, i) })
		}
		c.Run(0)
		for i, v := range got {
			if v != i {
				t.Fatalf("combined batch out of schedule order: %v", got)
			}
		}
	})
}

// TestQuickSameTickFIFO is the property form: events bucketed onto a
// handful of distinct times must fire time-sorted and FIFO within each
// time, on both kernels.
func TestQuickSameTickFIFO(t *testing.T) {
	perKernel(t, func(t *testing.T, mk func() *Clock) {
		f := func(raws []uint16) bool {
			c := mk()
			var got []int
			type key struct {
				at  Time
				idx int
			}
			var want []key
			for i, raw := range raws {
				i := i
				// Collapse onto 8 distinct times spread across wheel levels.
				at := Time(raw%8) * 613.7
				c.At(at, func() { got = append(got, i) })
				want = append(want, key{at, i})
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
			c.Run(0)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i].idx {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestOverflowCascade parks events beyond the wheel span and checks the
// overflow pull preserves global order, including interleaved cancels.
func TestOverflowCascade(t *testing.T) {
	c := New()
	var got []Time
	record := func(at Time) func() { return func() { got = append(got, at) } }
	// Wheel span is 64^6 ticks = 2^36/2^20 s = 65536 s; these are beyond.
	far := []Time{2_000_000, 1_000_000, 3_000_000}
	var timers []Timer
	for _, at := range far {
		timers = append(timers, c.At(at, record(at)))
	}
	c.At(5, record(5))
	timers[2].Stop() // cancel the farthest while parked in overflow
	c.Run(0)
	want := []Time{5, 1_000_000, 2_000_000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after drain", c.Pending())
	}
}
