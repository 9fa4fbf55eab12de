package harness

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// bytewiseFNV is the reference fold of hasher.u64: FNV-1a over v's eight
// bytes, least significant first, one multiply per byte.
func bytewiseFNV(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// TestHasherMatchesBytewiseFNV: folding the run of zero high bytes into
// one multiply is exact, so u64 agrees with the byte-by-byte reference on
// every value — zero, small ints, byte boundaries, all-ones, NaN bits and
// random words — from any starting state.
func TestHasherMatchesBytewiseFNV(t *testing.T) {
	vals := []uint64{0, 1, 255, 256, 1 << 56, math.MaxUint64, math.Float64bits(math.NaN()), 0xff00, 1 << 63}
	r := stats.NewRNG(17)
	for i := 0; i < 1000; i++ {
		vals = append(vals, r.Uint64(), r.Uint64()>>(8*uint(r.Intn(8))))
	}
	h := newHasher()
	ref := uint64(fnvOffset)
	for _, v := range vals {
		h.u64(v)
		ref = bytewiseFNV(ref, v)
		if uint64(h) != ref {
			t.Fatalf("u64(%#x): %#x, bytewise FNV-1a %#x", v, uint64(h), ref)
		}
	}
}

func BenchmarkComputeDigest(b *testing.B) {
	a, err := RunScenario(Generate(4, 50))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDigest(a)
	}
}
