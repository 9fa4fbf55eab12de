package sim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/cloud"
	"repro/internal/placement"
	"repro/internal/spec"
	"repro/internal/stats"
)

// This file checks the closed-form stage kernel (the Monte-Carlo
// oracle's segment.eval and Estimate's segment.moments) against the
// general reference it replaced: the same
// stage emitted node by node as a Program, sampled by
// Program.SampleInto and moment-propagated by Program.MomentsInto.

// refSegment is one stage as a general Program, with the node
// indices that condense a sampled schedule to a segSample.
type refSegment struct {
	prog *Program
	// scaleIdx is the SCALE node, -1 when the cluster does not grow;
	// [trainLo, trainHi) are the TRAIN nodes.
	scaleIdx, trainLo, trainHi int
}

// refProgram emits key's stage as a program in DAG node order: SCALE and
// the INITs when the cluster grows, the TRAINs (queued ones after their
// slot's previous TRAIN), then SYNC over every TRAIN.
func refProgram(s *Simulator, key segKey) *refSegment {
	alloc := int(key.alloc)
	st := s.spec.Stage(int(key.stage))
	gpn := s.cloud.Instance.GPUs
	per := 1
	var need int
	if alloc >= st.Trials {
		per = alloc / st.Trials
		need = placement.NodesNeeded(st.Trials, per, gpn)
	} else {
		need = placement.NodesNeeded(alloc, 1, gpn)
	}
	grow := max(need-int(key.prev), 0)
	var initLo, trainLo int32 // the INITs are [initLo, trainLo)
	if grow > 0 {
		initLo, trainLo = 1, int32(1+grow)
	}
	trainHi := trainLo + int32(st.Trials)
	opening := min(alloc, st.Trials)
	edges := 2*st.Trials - opening
	if grow > 0 {
		edges += 1 + grow
	}
	prog := NewProgram(int(trainHi)+1, edges)
	rs := &refSegment{prog: prog, scaleIdx: -1, trainLo: int(trainLo), trainHi: int(trainHi)}
	if grow > 0 {
		rs.scaleIdx = int(prog.AddSpan(s.cloud.Overheads.QueueDelay, 0, 0))
		for k := 0; k < grow; k++ {
			prog.AddSpan(s.cloud.Overheads.InitLatency, 0, 1)
		}
	}
	trainDist := sumIters(s.profile.IterDist(per), st.Iters)
	for tr := int32(0); tr < int32(st.Trials); tr++ {
		if slot := tr - int32(opening); slot >= 0 {
			prog.AddSpan(trainDist, trainLo+slot, trainLo+slot+1)
		} else {
			prog.AddSpan(trainDist, initLo, trainLo)
		}
	}
	prog.AddSpan(stats.Deterministic{Value: 0}, trainLo, trainHi)
	return rs
}

// eval samples the program and condenses the schedule to a segSample.
func (rs *refSegment) eval(r *stats.RNG, buf []Timing) (segSample, []Timing) {
	timings, dur := rs.prog.SampleInto(r, buf)
	out := segSample{dur: dur}
	if rs.scaleIdx >= 0 {
		out.scaleFin = timings[rs.scaleIdx].Finish
	}
	for _, t := range timings[rs.trainLo:rs.trainHi] {
		out.trainSec += t.Finish - t.Start
	}
	return out, timings
}

// moments propagates the program's moments and condenses them to a
// segMoment.
func (rs *refSegment) moments() segMoment {
	var sc MomentScratch
	mk, ok := rs.prog.MomentsInto(&sc)
	if !ok {
		return segMoment{}
	}
	v := segMoment{ok: true, dur: mk}
	if rs.scaleIdx >= 0 {
		v.scaleFin = sc.Finish(rs.scaleIdx)
	}
	for i := rs.trainLo; i < rs.trainHi; i++ {
		v.trainSec = v.trainSec.AddIndep(sc.Latency(i))
	}
	return v
}

// distProfile is a training profile with one stored iteration latency at
// every allocation; returning the stored interface boxes nothing.
type distProfile struct{ d stats.Dist }

func (p distProfile) IterDist(int) stats.Dist { return p.d }

// kernelSim returns a simulator over a four-stage spec of 24, 9, 2 and 1
// trials on gpn-GPU instances, and the Monte-Carlo oracle over it.
func kernelSim(t testing.TB, gpn int, train stats.Dist, oh cloud.Overheads) (*Simulator, *monteCarlo) {
	t.Helper()
	s, err := spec.New(spec.Stage{Trials: 24, Iters: 3}, spec.Stage{Trials: 9, Iters: 2},
		spec.Stage{Trials: 2, Iters: 4}, spec.Stage{Trials: 1, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp := cloud.PaperProfile(0)
	cp.Instance.GPUs = gpn
	cp.Overheads = oh
	sm, err := New(s, distProfile{train}, cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sm, newMonteCarlo(sm, 3, stats.NewRNG(uint64(gpn)))
}

// segmentFor returns the table's segment for key, building and storing
// it on a miss, as compile does for each stage of a plan.
func (s *Simulator) segmentFor(key segKey) *segment {
	h, _ := s.tab.index.get(key)
	if h == 0 {
		built := s.buildSegment(key)
		h = s.tab.store(&built)
	}
	return s.tab.segs.at(h)
}

// sameBits reports whether two moments are bitwise equal.
func sameBits(a, b stats.Moment) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) && math.Float64bits(a.Var) == math.Float64bits(b.Var)
}

// TestStageKernelMatchesProgram: for every stage shape the simulator can
// emit — each allocation up to three times the trial count, every carried
// instance count up to 10, three instance sizes — and for every latency
// opcode, the kernel draws the same segSample as the reference program
// bitwise on several streams, and propagates the same moments bitwise,
// including ok=false where moments do not exist or a queued stage cannot
// prove its latencies non-negative. The provisioning latencies are the
// ones Init accepts: finite moments, never below zero.
func TestStageKernelMatchesProgram(t *testing.T) {
	trains := []stats.Dist{
		stats.Normal{Mu: 30, Sigma: 4},
		stats.LogNormal{Mu: 3, Sigma: 0.3},
		stats.Deterministic{Value: 20},
		stats.Deterministic{Value: 0}, // slot tails of both depths are bit-equal: the groups merge
		stats.Uniform{Lo: 5, Hi: 9},
		stats.Uniform{Lo: -2, Hi: 6}, // not provably non-negative
		stats.Exponential{MeanValue: 10},
		stats.Pareto{Scale: 2, Alpha: 3},
		stats.Pareto{Scale: 2, Alpha: 1.5}, // no finite variance
	}
	overheads := []cloud.Overheads{
		{QueueDelay: stats.Exponential{MeanValue: 5}, InitLatency: stats.Normal{Mu: 15, Sigma: 3}},
		{QueueDelay: stats.Deterministic{Value: 0}, InitLatency: stats.Deterministic{Value: 0}},
		{QueueDelay: stats.LogNormal{Mu: 1, Sigma: 0.5}, InitLatency: stats.Uniform{Lo: 2, Hi: 4}},
		{QueueDelay: stats.Pareto{Scale: 1, Alpha: 3}, InitLatency: stats.Exponential{MeanValue: 3}},
	}
	const streams = 3
	var shapes, finite int
	for _, gpn := range []int{1, 4, 8} {
		for ti, train := range trains {
			for oi, oh := range overheads {
				sm, mc := kernelSim(t, gpn, train, oh)
				for stage := int32(0); stage < int32(sm.spec.NumStages()); stage++ {
					trials := int32(sm.spec.Stage(int(stage)).Trials)
					for alloc := int32(1); alloc <= 3*trials; alloc++ {
						for prev := int32(0); prev <= 10; prev++ {
							key := segKey{stage: stage, alloc: alloc, prev: prev}
							name := fmt.Sprintf("gpn %d train %d overheads %d key %+v", gpn, ti, oi, key)
							sg, ref := sm.buildSegment(key), refProgram(sm, key)
							if sg.nodes() != ref.prog.Len() {
								t.Fatalf("%s: kernel has %d nodes, program %d", name, sg.nodes(), ref.prog.Len())
							}
							base := mc.segStream(key)
							d := sm.segDists(&sg)
							var fin []float64
							var buf []Timing
							for k := uint64(0); k < streams; k++ {
								var got, want segSample
								got, fin = sg.eval(&d, base.Stream(k), fin)
								want, buf = ref.eval(base.Stream(k), buf)
								if math.Float64bits(got.dur) != math.Float64bits(want.dur) ||
									math.Float64bits(got.scaleFin) != math.Float64bits(want.scaleFin) ||
									math.Float64bits(got.trainSec) != math.Float64bits(want.trainSec) {
									t.Fatalf("%s stream %d: kernel draws %+v, program %+v", name, k, got, want)
								}
							}
							got, want := sg.moments(&sm.prov), ref.moments()
							if got.ok != want.ok || !sameBits(got.dur, want.dur) ||
								!sameBits(got.scaleFin, want.scaleFin) || !sameBits(got.trainSec, want.trainSec) {
								t.Fatalf("%s: kernel moments %+v, program %+v", name, got, want)
							}
							if u, isU := train.(stats.Uniform); isU && u.Lo < 0 && sg.opening < sg.trials && got.ok {
								t.Fatalf("%s: queued stage with a possibly negative TRAIN reports moments", name)
							}
							shapes++
							if got.ok {
								finite++
							}
						}
					}
				}
			}
		}
	}
	if finite == 0 || finite == shapes {
		t.Fatalf("%d of %d shapes have finite moments; the sweep must cover both outcomes", finite, shapes)
	}
	t.Logf("%d segment shapes, %d with finite moments", shapes, finite)
}

// TestSumMomentMatchesSumIters: the iteration total's moments are, bit
// for bit, those of the distribution the Monte-Carlo oracle draws it
// from, and its non-negativity is the oracle distribution's.
func TestSumMomentMatchesSumIters(t *testing.T) {
	for _, d := range []stats.Dist{
		stats.Deterministic{Value: 2}, stats.Deterministic{Value: -1}, stats.Normal{Mu: 3, Sigma: 1},
		stats.Exponential{MeanValue: 1}, stats.LogNormal{Mu: 1, Sigma: 0.2},
		stats.Uniform{Lo: -2, Hi: 6}, stats.Pareto{Scale: 2, Alpha: 1.5},
		stats.Scaled{D: stats.Exponential{MeanValue: 2}, Factor: 3},
	} {
		for _, n := range []int{1, 7, 100} {
			got, gok := stats.SumMoment(d, n)
			want, wok := stats.DistMoment(sumIters(d, n))
			if gok != wok || gok && !sameBits(got, want) {
				t.Fatalf("%v x %d: SumMoment (%+v, %v), sumIters (%+v, %v)", d, n, got, gok, want, wok)
			}
			if g, w := stats.NonNeg(d), latNonNeg(sumIters(d, n)); g != w {
				t.Fatalf("%v x %d: NonNeg %v, sumIters %v", d, n, g, w)
			}
		}
	}
}

// TestColdSegmentBuildAllocatesOnlySegment: building a segment allocates
// nothing (the profile here returns a stored distribution, so the
// profile boxes nothing either, and the share column already holds it
// after AllocsPerRun's warm-up call); the segment record is the only
// storage a miss takes, carved from the table's segment slab. Storing
// the segments of a fresh table takes that slab's first chunk and the
// index's first slot array, and storing them again after the Simulator
// is re-initialised over that table allocates nothing.
func TestColdSegmentBuildAllocatesOnlySegment(t *testing.T) {
	exactAllocs(t)
	sm, _ := kernelSim(t, 4, stats.Normal{Mu: 30, Sigma: 4}, cloud.DefaultOverheads())
	keys := []segKey{{0, 24, 0}, {0, 7, 3}, {1, 18, 2}, {3, 1, 0}}
	for _, key := range keys {
		if allocs := testing.AllocsPerRun(50, func() { sm.buildSegment(key) }); allocs != 0 {
			t.Fatalf("building segment %+v allocates %v, want 0", key, allocs)
		}
	}
	store := func() uint64 {
		return mallocs(func() {
			for _, key := range keys {
				sm.segmentFor(key)
			}
		})
	}
	tab := sm.tab
	sm.tab = new(segTable)
	sm.tab.shares = tab.shares // the share column is not under test
	sm.tab.full = tab.full
	if allocs, chunks := store(), sm.tab.segs.n; allocs > 2 || chunks != 1 {
		t.Fatalf("storing %d segments on a fresh table allocates %d objects into %d slab chunks, want the first chunk and the index's first slot array", len(keys), allocs, chunks)
	}
	reinit(t, sm)
	if allocs := store(); allocs != 0 {
		t.Fatalf("storing %d segments on a re-initialised table allocates %d, want 0", len(keys), allocs)
	}
}

// TestSegmentRecordSize pins the segment record at 56 bytes: the int32
// shape, the TRAIN latency's moments and flags, the provisioning
// moments kept by the Simulator rather than copied into every record,
// and a 32-bit ref for the filled moments. The record holds no pointer,
// so its size is the same on every word size.
func TestSegmentRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(segment{}); got != 56 {
		t.Fatalf("segment record is %d bytes, want 56", got)
	}
}

// TestColdMomentFillAllocatesOnlySegMoment: a moment miss stores its
// segMoment in a record carved from the table's moment slab and takes
// nothing else. On a re-initialised Simulator's table moment misses
// allocate nothing; on a new Simulator's, the slab's first chunk.
func TestColdMomentFillAllocatesOnlySegMoment(t *testing.T) {
	exactAllocs(t)
	fill := func(sm *Simulator, segs []ref) uint64 {
		return mallocs(func() {
			for _, h := range segs {
				sm.segmentMoments(h)
			}
		})
	}
	sm := reinitSim(t)
	segs := tableSegments(t, sm, testPlans(sm))
	if allocs := fill(sm, segs); allocs != 0 {
		t.Fatalf("cold moment fills of %d segments on a re-initialised table allocate %d, want 0", len(segs), allocs)
	}

	sm = stochasticSim(t)
	segs = tableSegments(t, sm, testPlans(sm)[1:2])
	if allocs, chunks := fill(sm, segs), sm.tab.moms.n; allocs != 1 || chunks != 1 {
		t.Fatalf("cold moment fills of %d segments on a fresh table allocate %d objects into %d chunks, want the one first chunk", len(segs), allocs, chunks)
	}
}

// benchSegments returns the distinct segments of the test plans on a
// stochastic simulator.
func benchSegments(b *testing.B) (*Simulator, []segKey) {
	sm := stochasticSim(b)
	var keys []segKey
	for _, p := range testPlans(sm) {
		var cp compiledPlan
		if err := sm.compile(p, &cp); err != nil {
			b.Fatal(err)
		}
		for i := range cp.segs {
			keys = append(keys, cp.seg(i).key)
		}
	}
	return sm, keys
}

// Benchmark results land in these package-level sinks so the compiler
// cannot drop the measured calls.
var (
	segSink    segment
	sampleSink segSample
	momentSink segMoment
)

// BenchmarkSegmentBuild measures resolving a stage to its kernel.
func BenchmarkSegmentBuild(b *testing.B) {
	sm, keys := benchSegments(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			segSink = sm.buildSegment(key)
		}
	}
}

// BenchmarkSegmentSample measures one Monte-Carlo draw of each segment.
func BenchmarkSegmentSample(b *testing.B) {
	sm, keys := benchSegments(b)
	segs := make([]*segment, len(keys))
	dists := make([]segDists, len(keys))
	for i, key := range keys {
		segs[i] = sm.segmentFor(key)
		dists[i] = sm.segDists(segs[i])
	}
	r := stats.NewRNG(1)
	var fin []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, sg := range segs {
			sampleSink, fin = sg.eval(&dists[j], r, fin)
		}
	}
}

// BenchmarkSegmentMoments measures one moment propagation per segment.
func BenchmarkSegmentMoments(b *testing.B) {
	sm, keys := benchSegments(b)
	segs := make([]*segment, len(keys))
	for i, key := range keys {
		segs[i] = sm.segmentFor(key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sg := range segs {
			momentSink = sg.moments(&sm.prov)
		}
	}
}
