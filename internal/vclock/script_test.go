package vclock

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// specEvent is the model's record of one scheduled event.
type specEvent struct {
	at    Time
	seq   uint64
	fired bool
}

// specModel tracks every event a script schedules and checks each kernel
// observation against the kernel's specification:
//   - every event fires exactly once, at its scheduled time, in strictly
//     increasing (at, seq) order;
//   - Pending equals the number of model events still pending, and a
//     bounded drain (Advance, Run) leaves none at or before its bound.
//
// The first violation is latched in err.
type specModel struct {
	c    *Clock
	tags map[int]*specEvent
	all  []*specEvent // schedule order, for deterministic scans
	open int          // model events still pending
	last *specEvent   // most recent firing
	err  error
}

func (m *specModel) failf(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// scheduled records the event the kernel just accepted under tag.
func (m *specModel) scheduled(tag int, at Time) {
	e := &specEvent{at: at, seq: m.c.Seq() - 1}
	m.tags[tag] = e
	m.all = append(m.all, e)
	m.open++
}

// fire checks the firing of tag against the spec.
func (m *specModel) fire(tag int) {
	e := m.tags[tag]
	switch {
	case e == nil:
		m.failf("unscheduled event %d fired", tag)
		return
	case e.fired:
		m.failf("event %d fired twice", tag)
	case m.c.Now() != e.at:
		m.failf("event %d fired at %v, scheduled for %v", tag, m.c.Now(), e.at)
	case m.last != nil && (e.at < m.last.at || e.at == m.last.at && e.seq <= m.last.seq):
		m.failf("event %d (at %v, seq %d) fired after (at %v, seq %d)", tag, e.at, e.seq, m.last.at, m.last.seq)
	}
	if !e.fired {
		m.open--
	}
	e.fired = true
	m.last = e
}

// drainedTo checks the clock's queue length and that no pending event is
// due at or before bound.
func (m *specModel) drainedTo(bound Time) {
	if p := len(m.c.heap); p != m.open {
		m.failf("Pending() = %d, model holds %d", p, m.open)
	}
	for _, e := range m.all {
		if !e.fired && e.at <= bound {
			m.failf("event (at %v, seq %d) still pending after a drain to %v", e.at, e.seq, bound)
			return
		}
	}
}

// scriptResult is what a script run reports besides spec violations.
type scriptResult struct {
	fires int
	// dogFires counts watchdogs that fired while their event was still
	// pending: an event lost or reordered.
	dogFires int
	// peak is the largest number of events pending at once between
	// script ops.
	peak int
}

// runScript interprets data as a deterministic kernel-exercise program
// against a fresh clock and checks every observation against the
// kernel's specification (see specModel), returning the first
// violation. The byte stream decodes into triples (opcode byte, uint16
// payload); the opcode space covers scheduling (near, same-instant, and
// far-future), opcode-dispatch scheduling, single steps, bounded
// Advance, horizon Run, and RunUntil — every public way to move the
// clock. An opcode event scheduled with an odd payload also arms a
// watchdog opcode event (tagged -1-tag) that the event disarms when it
// fires, the executor's pattern for abandoned events: the watchdog
// still fires, and finds itself stale.
func runScript(data []byte) (scriptResult, error) {
	c := New()
	m := &specModel{c: c, tags: map[int]*specEvent{}}
	var r scriptResult
	armed := map[int64]bool{} // watchdogs by event tag, while armed
	nextTag := 0
	const maxFires = 1 << 15
	fire := func(tag int) {
		r.fires++
		m.fire(tag)
	}
	id := c.RegisterDispatcher(func(op uint8, a, b int64) {
		switch op {
		case 1:
			delete(armed, a)
		case 2:
			if armed[-1-a] {
				r.dogFires++
			}
		}
		fire(int(a))
	})
	schedule := func(delay float64, spawn bool) {
		tag := nextTag
		nextTag++
		at := c.Now() + Time(delay)
		c.At(at, func() {
			fire(tag)
			if spawn && r.fires < maxFires {
				child := nextTag
				nextTag++
				// Child delay derives from the tag; child%3==0 lands at
				// the current instant.
				cat := c.Now() + Time(child%3)*0.0004
				c.At(cat, func() { fire(child) })
				m.scheduled(child, cat)
			}
		})
		m.scheduled(tag, at)
	}
	for len(data) >= 3 && m.err == nil {
		op, arg := data[0], binary.LittleEndian.Uint16(data[1:3])
		data = data[3:]
		bound := math.Inf(-1)
		switch op % 6 {
		case 0: // schedule a closure event within ~2 minutes
			schedule(float64(arg)/512, false)
		case 1: // schedule a spawning closure event (fires schedule more)
			schedule(float64(arg)/512, true)
		case 2: // schedule an opcode event; far in the future when arg is large
			tag := nextTag
			nextTag++
			at := c.Now() + Time(arg)*0.03
			c.AtOp(at, id, 1, int64(tag), 0)
			m.scheduled(tag, at)
			if arg&1 == 1 {
				armed[int64(tag)] = true
				c.AtOp(at+90, id, 2, int64(-1-tag), 0)
				m.scheduled(-1-tag, at+90)
			}
		case 3: // schedule far in the future (up to ~73 virtual days)
			schedule(float64(arg)*97.0, false)
		case 4: // advance a bounded window
			target := c.Now() + Time(arg)/256
			c.Advance(float64(arg) / 256)
			if c.Now() != target {
				m.failf("Advance stopped at %v, want %v", c.Now(), target)
			}
			bound = float64(target)
		case 5: // mixed drains: step, horizon run, or RunUntil a fire quota
			switch arg % 3 {
			case 0:
				c.Step()
			case 1:
				h := c.Now() + Time(arg)/128 // arg >= 1, so h > 0
				c.Run(h)
				bound = float64(h)
			default:
				target := r.fires + int(arg%5)
				c.RunUntil(func() bool { return r.fires >= target })
			}
		}
		m.drainedTo(Time(bound))
		if p := len(c.heap); p > r.peak {
			r.peak = p
		}
		if r.fires > maxFires {
			break
		}
	}
	if m.err == nil {
		c.Run(0) // drain everything still pending
		m.drainedTo(Time(math.Inf(1)))
	}
	return r, m.err
}

// populationScale is the concurrent event population the kernel tests
// hold at once: large enough that the heap is deep while events fire
// and cancel.
const populationScale = 2048

// populationScript is a seeded script that schedules populationScale
// watchdogged opcode events (each disarms its watchdog when it fires)
// before draining any, interleaved with short advances so firing and
// scheduling both happen at population scale.
func populationScript(seed uint64) []byte {
	var data []byte
	for i := 0; i < populationScale; i++ {
		seed += 0x9e3779b97f4a7c15
		z := (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		data = append(data, 2, byte(z)|1, byte(z>>8)) // odd payload: watchdogged
		if i%64 == 63 {
			data = append(data, 4, byte(z>>16), 0) // advance < 1 s
		}
	}
	return append(data, 5, 2, 0) // RunUntil a small fire quota
}

// TestKernelDifferentialRandomScripts drives the kernel through
// randomized schedule/advance scripts, plus one seeded
// population-scale script, and holds every run to the specification
// runScript checks.
func TestKernelDifferentialRandomScripts(t *testing.T) {
	f := func(data []byte) bool {
		_, err := runScript(data)
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(f, cfg); err != nil {
		if ce, ok := err.(*quick.CheckError); ok && len(ce.In) == 1 {
			if data, ok := ce.In[0].([]byte); ok {
				_, serr := runScript(data) // re-run for the violation itself
				t.Fatalf("%v: %v", err, serr)
			}
		}
		t.Fatal(err)
	}

	r, err := runScript(populationScript(7))
	if err != nil {
		t.Fatal(err)
	}
	if r.peak < populationScale {
		t.Fatalf("population script peaked at %d pending events, want >= %d", r.peak, populationScale)
	}
	if r.dogFires != 0 {
		t.Fatalf("%d armed watchdogs fired: their events were lost or reordered", r.dogFires)
	}
}

// TestSameTickFIFOAcrossCascade schedules interleaved batches at equal
// far-future times, plus times one ulp-scale step apart, and asserts
// every equal-time batch fires in exact schedule order.
func TestSameTickFIFOAcrossCascade(t *testing.T) {
	// 5000+2^-21 s has a strictly larger float time than 5000 s, so it
	// must fire after all 5000.0 events despite the interleaving.
	times := []Time{5000, 5000 + Time(math.Exp2(-21)), 71, 5000, 71, 5000 + Time(math.Exp2(-21))}
	c := New()
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
}

// TestSameTickFIFOAcrossRunUntil stops mid-way through a batch of
// simultaneous events via RunUntil, schedules more events at that same
// instant, and requires the combined batch to still fire in global
// schedule order.
func TestSameTickFIFOAcrossRunUntil(t *testing.T) {
	c := New()
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
	// Late arrivals at the current instant must fire after the original
	// batch: larger sequence numbers, same time.
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
}

// TestQuickSameTickFIFO is the property form: events bucketed onto a
// handful of distinct times must fire time-sorted and FIFO within each
// time.
func TestQuickSameTickFIFO(t *testing.T) {
	f := func(raws []uint16) bool {
		c := New()
		var got []int
		type key struct {
			at  Time
			idx int
		}
		var want []key
		for i, raw := range raws {
			i := i
			at := Time(raw%8) * 613.7 // collapse onto 8 distinct times
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
}

// TestOverflowCascade schedules events weeks of virtual time ahead and
// checks they fire in global order after a near event.
func TestOverflowCascade(t *testing.T) {
	c := New()
	var got []Time
	record := func(at Time) func() { return func() { got = append(got, at) } }
	for _, at := range []Time{2_000_000, 1_000_000, 3_000_000} {
		c.At(at, record(at))
	}
	c.At(5, record(5))
	c.Run(0)
	want := []Time{5, 1_000_000, 2_000_000, 3_000_000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if len(c.heap) != 0 {
		t.Fatalf("pending = %d after drain", len(c.heap))
	}
}
