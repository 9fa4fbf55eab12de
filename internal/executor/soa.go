package executor

import "repro/internal/trial"

// trialSoA holds the scheduler's per-trial state as dense parallel
// arrays indexed by trial ID — struct-of-arrays instead of the former
// map-per-field layout. At fleet scale (ROADMAP item 3: 10^6 concurrent
// trials) the maps dominated both memory and cache misses in the event
// hot loop; the arrays are sized once at Start and never grow during a
// run, so every per-event touch is an index into a contiguous block.
type trialSoA struct {
	// gen invalidates in-flight iteration events when a trial restarts
	// after a preemption: events carry the generation they were scheduled
	// under and return early on mismatch.
	gen []uint32
	// alloc is the trial's GPU allocation in the current stage, -1 when
	// it holds no slot (queued, finished, or between stages). Every
	// placement epoch passes it to the controller as is: at tight budgets
	// that is a stage start plus one hand-off per finishing trial.
	alloc []int32
	// left is the trial's remaining iteration budget in the current
	// stage, maintained by the opcode dispatch loop.
	left []int32
	// done marks trials that finished their stage budget and are idling
	// at the barrier (their work survives preemption).
	done []bool
	// slots counts trials with alloc >= 0; doneCount counts done trials.
	slots     int
	doneCount int
}

// init sizes the columns for n trials, none holding a slot, reusing
// their storage when it is large enough.
func (s *trialSoA) init(n int) {
	*s = trialSoA{gen: zeroed(s.gen, n), alloc: zeroed(s.alloc, n), left: zeroed(s.left, n), done: zeroed(s.done, n)}
	for i := range s.alloc {
		s.alloc[i] = -1
	}
}

// resetStage clears the per-stage columns (allocations and barrier
// marks); generations persist for the whole run.
func (s *trialSoA) resetStage() {
	for i := range s.alloc {
		s.alloc[i] = -1
		s.done[i] = false
		s.left[i] = 0
	}
	s.slots, s.doneCount = 0, 0
}

func (s *trialSoA) setAlloc(id trial.ID, gpus int) {
	if s.alloc[id] < 0 {
		s.slots++
	}
	s.alloc[id] = int32(gpus)
}

func (s *trialSoA) clearAlloc(id trial.ID) {
	if s.alloc[id] >= 0 {
		s.slots--
	}
	s.alloc[id] = -1
}

// allocOf returns the trial's current allocation (0 when it has none,
// matching the old map's zero-value read).
func (s *trialSoA) allocOf(id trial.ID) int {
	if s.alloc[id] < 0 {
		return 0
	}
	return int(s.alloc[id])
}

func (s *trialSoA) markDone(id trial.ID) {
	if !s.done[id] {
		s.doneCount++
	}
	s.done[id] = true
}

// fold hashes every column into an FNV-1a fingerprint. Journal
// snapshots capture it so crash recovery can verify the re-executed
// scheduler state — not just trial-visible state — matches the
// original run bit for bit.
func (s *trialSoA) fold() uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	mix(uint64(s.slots))
	mix(uint64(s.doneCount))
	for i := range s.gen {
		mix(uint64(s.gen[i]))
		mix(uint64(uint32(s.alloc[i])))
		mix(uint64(uint32(s.left[i])))
		if s.done[i] {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}
