//rbvet:pkgpath repro/internal/sim

// A function in the memoization registry (sim's segment table) must carry
// //rbvet:pure; the registry is keyed by FullName, so the pinned package
// path makes this fixture's buildSegment the registered root.
package memoroot

type Simulator struct {
	segs map[string]int
}

func (s *Simulator) buildSegment(key string) int { // want `\[purity\] memoroot\.\(\*Simulator\)\.buildSegment is memoized by the segment table \(sim\.segs\) but not annotated //rbvet:pure`
	return len(key)
}
