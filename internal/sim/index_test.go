package sim

import (
	"encoding/binary"
	"math"
	"testing"
)

// collideKey is an index key whose hash keeps only its low two bits, so
// the keys of a test collide in long runs and every probe path (chains
// that wrap the table, growth with collisions in flight) is exercised.
type collideKey uint16

func (k collideKey) hash() uint64 { return uint64(k & 3) }

// wideKey is an index key hashed the way segKey is, over 16-bit input.
type wideKey uint16

func (k wideKey) hash() uint64 {
	return segKey{stage: int32(k >> 8), alloc: int32(k & 0xff), prev: int32(k % 7)}.hash()
}

// indexOps drives an index and a Go map reference with the same
// operation sequence, decoded from ops three bytes at a time: op byte,
// then a 16-bit key. Op 0 resets both, ops 1–3 put (storing a value
// derived from the step), and the rest get; every get, and every put's
// found flag, must agree with the map. nearWrap starts the index two
// resets before its epoch counter wraps.
func indexOps[K indexKey](t *testing.T, ops []byte, nearWrap bool, key func(uint16) K) {
	t.Helper()
	var x index[K, int]
	ref := make(map[K]int)
	if nearWrap {
		x.epoch = math.MaxUint32 - 1
	}
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		k := key(binary.LittleEndian.Uint16(ops[1:]))
		switch op := ops[0] % 8; {
		case op == 0:
			x.reset()
			clear(ref)
		case op <= 3:
			v, found := x.put(k)
			want, inRef := ref[k]
			if found != inRef || (found && *v != want) {
				t.Fatalf("step %d: put(%v) found %v (value %d), reference %v (%d)", step, k, found, *v, inRef, want)
			}
			if !found {
				*v = step
				ref[k] = step
			}
		default:
			v, ok := x.get(k)
			want, inRef := ref[k]
			if ok != inRef || v != want {
				t.Fatalf("step %d: get(%v) = %d, %v; reference %d, %v", step, k, v, ok, want, inRef)
			}
		}
		if x.n != len(ref) {
			t.Fatalf("step %d: len %d, reference %d", step, x.n, len(ref))
		}
	}
	for k, want := range ref {
		if v, ok := x.get(k); !ok || v != want {
			t.Fatalf("final get(%v) = %d, %v; reference %d", k, v, ok, want)
		}
	}
}

// indexSeeds are operation sequences every run of the index tests
// replays: fills past several growths, resets between fills, and
// re-puts of keys stored before a reset.
func indexSeeds() [][]byte {
	var fill, churn []byte
	for i := 0; i < 120; i++ {
		fill = append(fill, 1, byte(i), byte(i>>8), 4, byte(i/2), 0)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			churn = append(churn, 2, byte(i*7+round), 0, 5, byte(i*7), 0)
		}
		churn = append(churn, 0, 0, 0)
	}
	return [][]byte{fill, churn, append(churn, fill...)}
}

// TestIndexMatchesMap holds the index to a Go map over the seed
// sequences, with a well-mixed and a colliding hash, from a fresh epoch
// and across an epoch wrap.
func TestIndexMatchesMap(t *testing.T) {
	for _, ops := range indexSeeds() {
		for _, nearWrap := range []bool{false, true} {
			indexOps(t, ops, nearWrap, func(k uint16) wideKey { return wideKey(k) })
			indexOps(t, ops, nearWrap, func(k uint16) collideKey { return collideKey(k % 512) })
		}
	}
}

// TestIndexEpochWrap: a key stored exactly 2^32 resets ago carries the
// stamp the wrapped epoch would reuse; the wrap must clear it rather
// than let it read as live.
func TestIndexEpochWrap(t *testing.T) {
	var x index[wideKey, int]
	v, _ := x.put(42)
	*v = 1
	x.epoch = math.MaxUint32
	x.slots[x.home(wideKey(42).hash())].epoch = 1 // as if stored at epoch 1, 2^32-1 resets ago
	x.reset()
	if x.epoch != 1 {
		t.Fatalf("epoch after the wrap is %d, want 1", x.epoch)
	}
	if v, ok := x.get(42); ok || x.n != 0 {
		t.Fatalf("a stamp from before the wrap reads as live: %d, %v (len %d)", v, ok, x.n)
	}
	if _, found := x.put(42); found {
		t.Fatal("put after the wrap found a stale entry")
	}
}

// TestIndexResetKeepsSlots: reset is O(1) and keeps the slot array, so a
// refill to the same size allocates nothing.
func TestIndexResetKeepsSlots(t *testing.T) {
	var x index[wideKey, int]
	fill := func() {
		for k := wideKey(0); k < 1000; k++ {
			*must(x.put(k)) = int(k)
		}
	}
	fill()
	slots := len(x.slots)
	if allocs := testing.AllocsPerRun(20, func() { x.reset(); fill() }); allocs != 0 {
		t.Fatalf("refilling a reset index allocates %v, want 0", allocs)
	}
	if len(x.slots) != slots {
		t.Fatalf("reset and refill moved the table from %d to %d slots", slots, len(x.slots))
	}
}

func must[V any](v *V, _ bool) *V { return v }

// FuzzIndexMatchesMap runs random put/get/reset sequences against a Go
// map, with a well-mixed and a colliding hash, from a fresh epoch and
// from one two resets before the counter wraps.
func FuzzIndexMatchesMap(f *testing.F) {
	for _, ops := range indexSeeds() {
		f.Add(ops, false)
		f.Add(ops, true)
	}
	f.Fuzz(func(t *testing.T, ops []byte, nearWrap bool) {
		// The colliding hash makes every probe walk the whole cluster,
		// so a long input costs quadratic time, and the fuzzer's
		// minimization of one takes minutes; 512 steps fill the table
		// past several growths.
		if len(ops) > 3*512 {
			t.Skip()
		}
		indexOps(t, ops, nearWrap, func(k uint16) wideKey { return wideKey(k) })
		indexOps(t, ops, nearWrap, func(k uint16) collideKey { return collideKey(k) })
	})
}

// BenchmarkSegTable measures the segment table's index: a warm hit, a
// miss plus store, and a reset of a table that held 1,000 segments.
// Each reports allocs/op; all three are 0, and reset's time does not
// depend on how many entries the table held.
func BenchmarkSegTable(b *testing.B) {
	keys := make([]segKey, 1000)
	for i := range keys {
		keys[i] = segKey{stage: int32(i % 10), alloc: int32(i / 10), prev: int32(i % 3)}
	}
	segs := make([]segment, len(keys))
	for i := range segs {
		segs[i].key = keys[i]
	}
	fill := func(t *segTable) {
		for i := range segs {
			t.store(&segs[i])
		}
	}
	b.Run("hit", func(b *testing.B) {
		t := new(segTable)
		fill(t)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h, _ := t.index.get(keys[i%len(keys)]); h == 0 {
				b.Fatal("miss on a stored key")
			}
		}
	})
	b.Run("miss-store", func(b *testing.B) {
		t := new(segTable)
		fill(t)
		t.reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(keys)
			if k == 0 && i > 0 {
				b.StopTimer()
				t.reset()
				b.StartTimer()
			}
			if h, _ := t.index.get(keys[k]); h == 0 {
				t.store(&segs[k])
			}
		}
	})
	b.Run("reset-1000", func(b *testing.B) {
		t := new(segTable)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fill(t)
			b.StartTimer()
			t.reset()
		}
	})
}
