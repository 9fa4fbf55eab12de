package harness

import (
	"math"

	"repro/internal/replan"
	"repro/internal/trace"
)

// Digest is a 64-bit fingerprint of a run's observable behaviour: the full
// event trace (times, kinds, stages, trials, gang shapes), the realized
// result (JCT, cost, best trial, schedule rows) and the final trial
// states. Two runs of the same scenario must produce equal digests; the
// replay oracle and the determinism regression tests compare them.
type Digest uint64

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// hasher is an incremental FNV-1a accumulator. Floats are folded by their
// IEEE-754 bit patterns, so the digest is sensitive to the last ulp — the
// standard the determinism suite holds the pipeline to.
type hasher uint64

func newHasher() hasher { return fnvOffset }

// fnvPow[k] is fnvPrime^k (mod 2^64): folding k zero bytes is
// x ^= 0, x *= fnvPrime, k times, which is one multiply by fnvPow[k].
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// u64 folds v's eight bytes, least significant first. Bytes below the
// highest non-zero one fold one at a time; that byte's own multiply and
// the run of zero bytes above it fold into one multiply by fnvPow[9-n],
// n counting the bytes up to it, so small integers and characters cost
// one or two multiplies instead of eight. (v = 0 is eight zero bytes:
// n = 1 and one multiply by fnvPow[8].)
func (h *hasher) u64(v uint64) {
	x := uint64(*h)
	n := 1
	for ; v > 0xff; n++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	*h = hasher((x ^ v) * fnvPow[9-n])
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.u64(uint64(s[i]))
	}
}

func (h *hasher) kind(k trace.Kind) { h.str(k.String()) }

// event folds one trace event's fields, notes left out, for
// ComputeDigest and for a journaled run's event fold alike.
func (h *hasher) event(e trace.Event) {
	h.f64(float64(e.At))
	h.kind(e.Kind)
	h.i64(int64(e.Stage))
	h.i64(int64(e.Trial))
	h.i64(int64(e.GPUs))
	h.i64(int64(e.Nodes))
}

// decision folds one replan decision's full payload, as event does an
// event. Booleans fold as 0/1, so a flipped adoption flips the hash.
func (h *hasher) decision(d *replan.Decision) {
	h.i64(int64(d.Seq))
	h.f64(float64(d.At))
	h.str(d.Reason.String())
	h.i64(int64(d.Stage))
	h.f64(d.Ratio)
	h.f64(d.RemainingDeadline)
	for _, g := range d.OldPlan.Alloc {
		h.i64(int64(g))
	}
	for _, g := range d.NewPlan.Alloc {
		h.i64(int64(g))
	}
	h.f64(d.StaleEstimate.JCT)
	h.f64(d.StaleEstimate.Cost)
	h.f64(d.NewEstimate.JCT)
	h.f64(d.NewEstimate.Cost)
	h.i64(b2i(d.Adopted))
	h.i64(b2i(d.Infeasible))
}

// ComputeDigest fingerprints the artifacts of one run.
func ComputeDigest(a *Artifacts) Digest {
	h := newHasher()

	// Plan and prediction.
	for _, g := range a.Plan.Alloc {
		h.i64(int64(g))
	}
	if a.Planned {
		h.f64(a.Estimate.JCT)
		h.f64(a.Estimate.Cost)
	}
	h.f64(a.Deadline)

	// Event trace, in recorded order. Indexed, note-free access into the
	// columnar recorder: digesting is the hottest full-trace scan, copying
	// the log out first would double its footprint at fleet scale, and
	// notes are presentation-only.
	h.i64(int64(a.Recorder.Len()))
	for i := 0; i < a.Recorder.Len(); i++ {
		h.event(a.Recorder.FieldsAt(i))
	}
	h.f64(a.Recorder.BusyGPUSeconds())

	// Result.
	h.f64(a.Result.JCT)
	h.f64(a.Result.Cost)
	h.i64(int64(a.Result.BestTrial))
	h.f64(a.Result.BestAccuracy)
	h.f64(a.Result.Utilization)
	h.i64(int64(a.Result.Preemptions))
	for _, row := range a.Result.Schedule {
		h.i64(int64(row.Stage))
		h.i64(int64(row.IterStart))
		h.i64(int64(row.IterEnd))
		h.i64(int64(row.Trials))
		h.i64(int64(row.GPUsPerTrial))
		h.i64(int64(row.ClusterNodes))
		h.f64(float64(row.Start))
		h.f64(float64(row.End))
		h.f64(row.Cost)
	}

	// Final trial states.
	for _, t := range a.Result.Trials {
		h.i64(int64(t.ID()))
		h.i64(int64(t.State()))
		h.i64(int64(t.CumIters()))
		if acc, ok := t.LatestAccuracy(); ok {
			h.f64(acc)
		}
	}

	// Replan decisions and the plan actually executed.
	for _, g := range a.Result.FinalPlan.Alloc {
		h.i64(int64(g))
	}
	h.i64(int64(len(a.Result.Replans)))
	for i := range a.Result.Replans {
		h.decision(&a.Result.Replans[i])
	}

	// Arbiter grants (stage-boundary reallocation of gated runs). Folded
	// only when present so ungated runs keep their historical digests.
	if len(a.Grants) > 0 {
		h.str("grants")
		h.i64(int64(len(a.Grants)))
		for _, g := range a.Grants {
			h.i64(int64(g.Stage))
			h.i64(int64(g.Want))
			h.i64(int64(g.Granted))
			h.f64(g.At)
		}
	}

	// Billing ledger.
	now := a.finishedAt()
	h.i64(int64(len(a.Instances)))
	for _, in := range a.Instances {
		h.i64(int64(in.ID))
		h.i64(int64(in.State))
		h.f64(in.BilledLifetime(now))
		h.f64(in.GPUSecondsUsed)
	}
	h.f64(a.DataCost)
	h.i64(int64(a.Retries))

	return Digest(h)
}

// b2i folds a bool into the hash domain.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CombineDigests folds per-scenario digests (in scenario-index order) into
// one batch digest.
func CombineDigests(ds []Digest) Digest {
	h := newHasher()
	for _, d := range ds {
		h.u64(uint64(d))
	}
	return Digest(h)
}
