package journal

// TrialSnap is one trial's state inside a Snapshot: identity, lifecycle
// state, training progress, and the latest observed accuracy (HasAcc
// false when no iteration has reported yet).
type TrialSnap struct {
	ID       int64
	State    int64
	CumIters int64
	HasAcc   bool
	Acc      float64
}

// AllocEWMA is the replan controller's drift-detector state for one
// per-trial GPU allocation.
type AllocEWMA struct {
	GPUs  int64
	EWMA  float64
	Count int64
}

// Snapshot captures the full control-plane state after a run's Seq-th
// observed event: the event fold so far, the virtual clock cursor (time
// and scheduling sequence), the live execution plan and per-trial
// state, accrued billing, the replan controller's EWMAs, and the RNG
// stream cursors of the two mutable generators (executor and provider).
//
// Snapshots are verified fingerprints, not restore images: recovery
// re-executes the pure pipeline and, at every snapshot's event count,
// the rebuilt state must encode to the stored snapshot byte for byte.
// Any mismatch means the rebuild diverged and recovery fails loudly.
type Snapshot struct {
	// Seq is the number of events (trace events and replan decisions)
	// the run had observed when the snapshot was captured.
	Seq uint64
	// Fold is the cumulative fingerprint of those Seq events (the
	// harness folds each one as its run digest does), so a snapshot
	// checks the event history as well as the state it led to.
	Fold uint64
	// VNow and ClockSeq are the virtual clock's cursor: current time and
	// the number of events ever scheduled.
	VNow     float64
	ClockSeq uint64
	// Stage is the executing stage (-1 before the executor started).
	Stage int64
	// Alloc is the live execution plan (adopted replans spliced in).
	Alloc []int64
	// Trials is the per-trial state, in trial-ID order.
	Trials []TrialSnap
	// ExecFold is the executor's fingerprint of its dense per-trial
	// scheduler state (executor.Job.StateFold): allocations, iteration
	// budgets, barrier marks, restart generations. Zero before the
	// executor starts. It extends snapshot verification to scheduler
	// internals that trial-visible state alone cannot distinguish.
	ExecFold uint64
	// TotalCost, DataCost, Instances and BusyGPUSeconds are the accrued
	// billing and metering state.
	TotalCost      float64
	DataCost       float64
	Instances      int64
	BusyGPUSeconds float64
	// ExecRNG and ProviderRNG are the 256-bit cursors of the two RNG
	// streams the run mutates.
	ExecRNG     [4]uint64
	ProviderRNG [4]uint64
	// HasReplan gates the controller fields below (false when the run has
	// no replan controller; the fields are then not encoded at all).
	HasReplan bool
	// TotalObs, Allocs, OverheadEWMA, OverheadCount, Armed, LastReplan
	// and Decisions mirror replan.Controller's detector state. Allocs is
	// in ascending GPU order.
	TotalObs      int64
	Allocs        []AllocEWMA
	OverheadEWMA  float64
	OverheadCount int64
	Armed         bool
	LastReplan    float64
	Decisions     int64
}

// Encode implements Record.
func (s *Snapshot) Encode() []byte {
	b := newEnc(tagSnapshot)
	b.u64(s.Seq)
	b.u64(s.Fold)
	b.f64(s.VNow)
	b.u64(s.ClockSeq)
	b.i64(s.Stage)
	b.i64s(s.Alloc)
	b.u32(uint32(len(s.Trials)))
	for _, t := range s.Trials {
		b.i64(t.ID)
		b.i64(t.State)
		b.i64(t.CumIters)
		b.bool(t.HasAcc)
		b.f64(t.Acc)
	}
	b.u64(s.ExecFold)
	b.f64(s.TotalCost)
	b.f64(s.DataCost)
	b.i64(s.Instances)
	b.f64(s.BusyGPUSeconds)
	for _, w := range s.ExecRNG {
		b.u64(w)
	}
	for _, w := range s.ProviderRNG {
		b.u64(w)
	}
	b.bool(s.HasReplan)
	if s.HasReplan {
		b.i64(s.TotalObs)
		b.u32(uint32(len(s.Allocs)))
		for _, a := range s.Allocs {
			b.i64(a.GPUs)
			b.f64(a.EWMA)
			b.i64(a.Count)
		}
		b.f64(s.OverheadEWMA)
		b.i64(s.OverheadCount)
		b.bool(s.Armed)
		b.f64(s.LastReplan)
		b.i64(s.Decisions)
	}
	return b.bytes()
}

// decodeSnapshot parses the payload after the tag byte.
func decodeSnapshot(d *dec) (*Snapshot, error) {
	var err error
	s := &Snapshot{}
	s.Seq = d.mustU64(&err)
	s.Fold = d.mustU64(&err)
	s.VNow = d.mustF64(&err)
	s.ClockSeq = d.mustU64(&err)
	s.Stage = d.mustI64(&err)
	s.Alloc = d.mustI64s(&err)
	if n := d.mustLen(&err); err == nil && n > 0 {
		s.Trials = make([]TrialSnap, n)
		for i := range s.Trials {
			t := &s.Trials[i]
			t.ID = d.mustI64(&err)
			t.State = d.mustI64(&err)
			t.CumIters = d.mustI64(&err)
			t.HasAcc = d.mustBool(&err)
			t.Acc = d.mustF64(&err)
			if err != nil {
				return nil, err
			}
		}
	}
	s.ExecFold = d.mustU64(&err)
	s.TotalCost = d.mustF64(&err)
	s.DataCost = d.mustF64(&err)
	s.Instances = d.mustI64(&err)
	s.BusyGPUSeconds = d.mustF64(&err)
	if ws := d.mustU64s(&err, 4); err == nil {
		copy(s.ExecRNG[:], ws)
	}
	if ws := d.mustU64s(&err, 4); err == nil {
		copy(s.ProviderRNG[:], ws)
	}
	s.HasReplan = d.mustBool(&err)
	if err == nil && s.HasReplan {
		s.TotalObs = d.mustI64(&err)
		if n := d.mustLen(&err); err == nil && n > 0 {
			s.Allocs = make([]AllocEWMA, n)
			for i := range s.Allocs {
				a := &s.Allocs[i]
				a.GPUs = d.mustI64(&err)
				a.EWMA = d.mustF64(&err)
				a.Count = d.mustI64(&err)
				if err != nil {
					return nil, err
				}
			}
		}
		s.OverheadEWMA = d.mustF64(&err)
		s.OverheadCount = d.mustI64(&err)
		s.Armed = d.mustBool(&err)
		s.LastReplan = d.mustF64(&err)
		s.Decisions = d.mustI64(&err)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}
