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
	r := stats.NewRNG(uint64(1))
	s, ref := NewStore(), make(map[ID]Checkpoint)
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
				t.Fatalf("step %d: Get(%d) = %+v, %v; reference %+v, %v", step, q, got, ok, want, inRef)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, reference %d", step, s.Len(), len(ref))
		}
	}
}
