package stats

import (
	"math"
	"sync"
	"testing"
)

// TestSplitGoldenNonOverlap pins the exact post-Split streams of a fixed
// parent (so any change to the derivation is caught) and proves the child
// stream does not overlap the parent's subsequent output for the first N
// draws.
func TestSplitGoldenNonOverlap(t *testing.T) {
	parent := NewRNG(0x5eed)
	child := parent.Split()

	wantChild := []uint64{0x27b545844ff46746, 0xa773de604056b314, 0x1adc6bc46e1f9645, 0x0741c6821b765e42}
	wantParent := []uint64{0xe1f591112fb5051b, 0xd8ab05640214863a, 0xf985e1f2fb897b03, 0xaf87a5f7e6ce1408}

	// Fresh copies for the golden check so the overlap scan below still
	// sees the streams from the beginning.
	gp := NewRNG(0x5eed)
	gc := gp.Split()
	for i, w := range wantChild {
		if got := gc.Uint64(); got != w {
			t.Fatalf("child draw %d = %#016x, want %#016x", i, got, w)
		}
	}
	for i, w := range wantParent {
		if got := gp.Uint64(); got != w {
			t.Fatalf("parent draw %d = %#016x, want %#016x", i, got, w)
		}
	}

	// Non-overlap: the first N draws of parent and child share no value.
	// A 64-bit collision among 2×4096 uniform draws has probability
	// ~2^-41, so any hit indicates the streams overlap structurally.
	const n = 4096
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		seen[child.Uint64()] = true
	}
	for i := 0; i < n; i++ {
		if v := parent.Uint64(); seen[v] {
			t.Fatalf("parent draw %d (%#016x) appears in child's first %d draws", i, v, n)
		}
	}
}

// TestSplitParentChildUncorrelated checks statistical independence of the
// two streams: the Pearson correlation of paired uniform draws must be
// consistent with zero.
func TestSplitParentChildUncorrelated(t *testing.T) {
	parent := NewRNG(0xabcdef)
	child := parent.Split()
	const n = 20000
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x, y := parent.Float64(), child.Float64()
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if corr := cov / math.Sqrt(vx*vy); math.Abs(corr) > 0.03 {
		t.Fatalf("parent/child correlation %v, want ~0", corr)
	}
}

func TestStreamGolden(t *testing.T) {
	s3 := NewRNG(7).Stream(3)
	want := []uint64{0xc233485e80cde930, 0xeed87808009d3a9b, 0xa7a07bf514b887b2, 0x8f99c4ef27bca71b}
	for i, w := range want {
		if got := s3.Uint64(); got != w {
			t.Fatalf("stream draw %d = %#016x, want %#016x", i, got, w)
		}
	}
}

// TestStreamDoesNotAdvanceParent is the purity contract: deriving any
// number of streams leaves the parent's own sequence untouched.
func TestStreamDoesNotAdvanceParent(t *testing.T) {
	a := NewRNG(9)
	b := NewRNG(9)
	for i := uint64(0); i < 100; i++ {
		_ = a.Stream(i)
	}
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: Stream perturbed parent (%d != %d)", i, av, bv)
		}
	}
}

// TestStreamStableAcrossDerivationOrder: Stream(i) denotes the same
// sequence no matter when or how often it is derived.
func TestStreamStableAcrossDerivationOrder(t *testing.T) {
	r := NewRNG(17)
	first := r.Stream(5).Uint64()
	for i := uint64(0); i < 32; i++ {
		_ = r.Stream(i)
	}
	if again := r.Stream(5).Uint64(); again != first {
		t.Fatalf("Stream(5) changed across derivations: %d != %d", again, first)
	}
}

func TestStreamIndicesDistinct(t *testing.T) {
	r := NewRNG(23)
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 1000; i++ {
		v := r.Stream(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d share first draw %#x", i, j, v)
		}
		seen[v] = i
	}
	// Streams must also differ from the parent's own output.
	if r.Stream(0).Uint64() == NewRNG(23).Uint64() {
		t.Fatal("Stream(0) equals the parent's first draw")
	}
}

// TestStreamConcurrentDerivation is a race-detector target: many
// goroutines deriving streams from one parent must neither race nor
// observe different sequences than serial derivation.
func TestStreamConcurrentDerivation(t *testing.T) {
	r := NewRNG(31)
	const n = 64
	want := make([]uint64, n)
	for i := range want {
		want[i] = r.Stream(uint64(i)).Uint64()
	}
	got := make([]uint64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i] = r.Stream(uint64(i)).Uint64()
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream %d: concurrent %d != serial %d", i, got[i], want[i])
		}
	}
}

func TestHash64(t *testing.T) {
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Error("Hash64 insensitive to order")
	}
	if Hash64(1) == Hash64(1, 0) {
		t.Error("Hash64 insensitive to length")
	}
	if Hash64(7, 8, 9) != Hash64(7, 8, 9) {
		t.Error("Hash64 not deterministic")
	}
}

// TestStreamIntoMatchesStream: StreamInto writes exactly the generator
// Stream returns, into a reused value or into the parent itself, without
// allocating.
func TestStreamIntoMatchesStream(t *testing.T) {
	root := NewRNG(0x5eed)
	var dst RNG
	for i := uint64(0); i < 64; i++ {
		root.StreamInto(i, &dst)
		if want := root.Stream(i); dst != *want {
			t.Fatalf("StreamInto(%d) state %v, Stream %v", i, dst.State(), want.State())
		}
	}
	self := *root
	want := root.Stream(9)
	self.StreamInto(9, &self)
	if self != *want {
		t.Fatalf("StreamInto onto its own receiver: %v, want %v", self.State(), want.State())
	}
	if allocs := testing.AllocsPerRun(100, func() { root.StreamInto(3, &dst) }); allocs != 0 {
		t.Fatalf("StreamInto allocates %v, want 0", allocs)
	}
}
