package trial

import "testing"

// TestStoreReset: a reset store holds no checkpoint of either sign, is
// sized for its new trial count, and then matches the map reference.
func TestStoreReset(t *testing.T) {
	s := NewStore(8)
	for id := ID(-3); id < 12; id++ {
		s.Put(Checkpoint{Trial: id, CumIters: 1})
	}
	for _, n := range []int{4, 40} {
		s.Reset(n)
		if s.Len() != 0 || len(s.ckpts) != n || len(s.neg) != 0 {
			t.Fatalf("Reset(%d): Len %d, columns %d and %d", n, s.Len(), len(s.ckpts), len(s.neg))
		}
		for id := ID(-3); id < 12; id++ {
			if _, ok := s.Get(id); ok {
				t.Fatalf("Reset(%d) kept trial %d's checkpoint", n, id)
			}
		}
	}
	checkStoreMatchesMap(t, 0)
}
