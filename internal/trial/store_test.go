package trial

import (
	"testing"

	"repro/internal/stats"
)

// TestStoreMatchesMap drives the dense Store and a map-backed reference
// with the same random Put/Get/Delete sequence over IDs of both signs,
// including IDs never stored and deletes of absent IDs: every Get and
// Len must agree.
func TestStoreMatchesMap(t *testing.T) {
	for _, n := range []int{0, 40, 200} {
		checkStoreMatchesMap(t, n)
	}
}

// checkStoreMatchesMap runs TestStoreMatchesMap's sequence on a store
// presized for trials 0..n-1.
func checkStoreMatchesMap(t *testing.T, n int) {
	r := stats.NewRNG(uint64(1))
	s, ref := NewStore(n), make(map[ID]Checkpoint)
	for step := 0; step < 20000; step++ {
		id := ID(r.Intn(80) - 20)
		switch r.Intn(4) {
		case 0, 1:
			c := Checkpoint{Trial: id, CumIters: step, Accuracy: r.Float64()}
			s.Put(c)
			ref[id] = c
		case 2:
			s.Delete(id)
			delete(ref, id)
		}
		probe := ID(r.Intn(200) - 100)
		for _, q := range []ID{id, probe} {
			got, ok := s.Get(q)
			want, inRef := ref[q]
			if ok != inRef || got != want {
				t.Fatalf("n %d step %d: Get(%d) = %+v, %v; reference %+v, %v", n, step, q, got, ok, want, inRef)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("n %d step %d: Len %d, reference %d", n, step, s.Len(), len(ref))
		}
	}
}

// TestStorePresized: a store sized for n trials stores, replaces and
// deletes their checkpoints without allocating.
func TestStorePresized(t *testing.T) {
	const n = 64
	s := NewStore(n)
	allocs := testing.AllocsPerRun(10, func() {
		for id := ID(0); id < n; id++ {
			s.Put(Checkpoint{Trial: id, CumIters: int(id)})
		}
		for id := ID(0); id < n; id += 2 {
			s.Delete(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("presized store allocated %v objects per pass, want 0", allocs)
	}
	if s.Len() != n/2 {
		t.Fatalf("Len %d, want %d", s.Len(), n/2)
	}
}
