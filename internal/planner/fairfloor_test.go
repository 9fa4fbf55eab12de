package planner

import "testing"

// fairFloorScan is the original O(max) downward scan, kept as the
// reference semantics for the divisor-based fairFloor.
func fairFloorScan(max, trials int) (int, bool) {
	for v := max; v >= 1; v-- {
		if v%trials == 0 || trials%v == 0 {
			return v, true
		}
	}
	return 0, false
}

// TestFairFloorMatchesScan checks the divisor-based fairFloor against the
// scan over a wide grid, including primes, perfect squares, max below /
// at / above trials, and the degenerate max < 1 cases.
func TestFairFloorMatchesScan(t *testing.T) {
	trialCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 25, 36, 49, 60, 64, 97, 100, 128}
	for _, trials := range trialCounts {
		for max := -2; max <= 3*trials+5; max++ {
			wantV, wantOK := fairFloorScan(max, trials)
			gotV, gotOK := fairFloor(max, trials)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("fairFloor(%d, %d) = (%d, %v), scan gives (%d, %v)",
					max, trials, gotV, gotOK, wantV, wantOK)
			}
		}
	}
	// A few large points where the scan is still affordable but the gap
	// between O(max) and O(√trials) is real.
	for _, c := range [][2]int{{100000, 1024}, {99991, 720}, {65536, 97}} {
		wantV, wantOK := fairFloorScan(c[0], c[1])
		gotV, gotOK := fairFloor(c[0], c[1])
		if gotV != wantV || gotOK != wantOK {
			t.Fatalf("fairFloor(%d, %d) = (%d, %v), scan gives (%d, %v)", c[0], c[1], gotV, gotOK, wantV, wantOK)
		}
	}
}
