package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/placement"
	"repro/internal/stats"
)

// This file holds the reference the segment kernel and the segment
// Monte-Carlo oracle are checked against: Algorithm 1 run over a plan's
// whole execution DAG, the graph Figure 7 draws, sampled node by node
// from the plan's own RNG stream family with no segment table, no
// compiled programs and no cross-plan draw sharing.

// fullDAG is a plan's whole execution DAG plus the per-stage node IDs
// that condense one sampled schedule into per-stage segSamples.
type fullDAG struct {
	graph *Graph
	// lo[i] is stage i's first node ID; lo[stages] is the node count.
	lo []int
	// scaleID[i] is the SCALE node issued before stage i, -1 if the
	// cluster does not grow into it, and grow[i] its INIT_INSTANCE count.
	scaleID, grow []int
	// syncID[i] is stage i's closing SYNC barrier.
	syncID []int
	// instances[i] is the cluster size (instance count) during stage i.
	instances []int
	// trainIDs[i] lists stage i's TRAIN nodes.
	trainIDs [][]int
}

// buildFullDAG synthesizes the execution DAG for a plan (§4.2, Figure 7):
// per stage, an optional blocking SCALE node plus parallel INIT_INSTANCE
// nodes if the cluster must grow, parallel TRAIN nodes (chained serially
// when the stage has fewer GPUs than trials), and a closing SYNC barrier
// that the next stage extends from.
func buildFullDAG(s *Simulator, p Plan) (*fullDAG, error) {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return nil, err
	}
	g := newGraph()
	b := &fullDAG{graph: g}
	gpn := s.cloud.Instance.GPUs

	curInstances := 0
	frontier := []int(nil) // node IDs the next stage depends on
	trial0 := 0            // global index of the stage's first trial
	for i := 0; i < s.spec.NumStages(); i++ {
		st := s.spec.Stage(i)
		alloc := p.Alloc[i]
		b.lo = append(b.lo, g.Len())
		var need int
		if alloc >= st.Trials {
			need = placement.NodesNeeded(st.Trials, alloc/st.Trials, gpn)
		} else {
			need = placement.NodesNeeded(alloc, 1, gpn)
		}

		scaleID := -1
		stageDeps := frontier
		if need > curInstances {
			scale := g.AddNode(Scale, i, -1, 0, s.cloud.Overheads.QueueDelay, frontier...)
			scaleID = scale.ID
			inits := make([]int, 0, need-curInstances)
			for k := curInstances; k < need; k++ {
				init := g.AddNode(InitInstance, i, -1, 0, s.cloud.Overheads.InitLatency, scale.ID)
				inits = append(inits, init.ID)
			}
			// Training can begin only when both the previous stage is
			// complete and the new instances are ready.
			stageDeps = append(append([]int(nil), frontier...), inits...)
		}
		b.grow = append(b.grow, max(need-curInstances, 0))
		curInstances = need
		b.scaleID = append(b.scaleID, scaleID)
		b.instances = append(b.instances, need)

		var trains []int
		if alloc >= st.Trials {
			per := alloc / st.Trials
			trainDist := sumIters(s.profile.IterDist(per), st.Iters)
			for tr := 0; tr < st.Trials; tr++ {
				n := g.AddNode(Train, i, trial0+tr, per, trainDist, stageDeps...)
				trains = append(trains, n.ID)
			}
		} else {
			trainDist := sumIters(s.profile.IterDist(1), st.Iters)
			slotTail := make([]int, alloc) // last node ID per slot
			for k := range slotTail {
				slotTail[k] = -1
			}
			for tr := 0; tr < st.Trials; tr++ {
				slot := tr % alloc
				deps := stageDeps
				if slotTail[slot] >= 0 {
					deps = []int{slotTail[slot]}
				}
				n := g.AddNode(Train, i, trial0+tr, 1, trainDist, deps...)
				slotTail[slot] = n.ID
				trains = append(trains, n.ID)
			}
		}
		b.trainIDs = append(b.trainIDs, trains)

		sync := g.AddNode(Sync, i, -1, 0, stats.Deterministic{Value: 0}, trains...)
		b.syncID = append(b.syncID, sync.ID)
		frontier = []int{sync.ID}
		trial0 += st.Trials
	}
	b.lo = append(b.lo, g.Len())
	return b, nil
}

// planStream returns the root of the plan's own stream family, keyed by a
// hash of its raw allocation vector under m's root.
func planStream(m *monteCarlo, p Plan) *stats.RNG {
	words := make([]uint64, len(p.Alloc))
	for i, a := range p.Alloc {
		words[i] = uint64(a)
	}
	return m.root.Stream(stats.Hash64(words...))
}

// algorithm1 draws m.samples schedules of the plan's full DAG, draw k from
// the k-th stream of the plan's family, and condenses each stage of each
// draw to a segSample: the sync-to-sync duration, the SCALE finish
// relative to the stage start, and the TRAIN GPU-slot seconds. rows[i][k]
// is stage i's draw k. The returned compiledPlan carries only the DAG's
// billing metadata (instances, SCALE presence, per-trial GPUs) and the
// rows, in a table of its own, so pricing it never consults the
// Simulator's segment table.
func algorithm1(t testing.TB, m *monteCarlo, p Plan) (*compiledPlan, [][]segSample) {
	t.Helper()
	b, err := buildFullDAG(m.s, p)
	if err != nil {
		t.Fatal(err)
	}
	stages := len(b.syncID)
	segs := make([]segment, stages)
	for i := range segs {
		segs[i] = segment{
			instances: int32(b.instances[i]),
			grow:      int32(b.grow[i]),
			trainGPUs: int32(b.graph.Node(b.trainIDs[i][0]).GPUs),
		}
	}
	rows := make([][]segSample, stages)
	for i := range rows {
		rows[i] = make([]segSample, m.samples)
	}
	base := planStream(m, p)
	var buf []Timing
	for k := 0; k < m.samples; k++ {
		buf, _ = b.graph.SampleInto(base.Stream(uint64(k)), buf)
		start := 0.0
		for i := 0; i < stages; i++ {
			row := segSample{dur: buf[b.syncID[i]].Finish - start}
			if b.scaleID[i] >= 0 {
				row.scaleFin = buf[b.scaleID[i]].Finish - start
			}
			for _, id := range b.trainIDs[i] {
				row.trainSec += buf[id].Finish - buf[id].Start
			}
			rows[i][k] = row
			start = buf[b.syncID[i]].Finish
		}
	}
	return tableCompiled(segs), rows
}

// tableCompiled stores segments in a fresh table of their own and
// returns the compiled plan referring to them.
func tableCompiled(segs []segment) *compiledPlan {
	t := new(segTable)
	cp := &compiledPlan{tab: t}
	for i := range segs {
		run, h := t.segs.take(1)
		run[0] = segs[i]
		cp.segs, cp.moms = append(cp.segs, h), append(cp.moms, 0)
		cp.maxInstances = max(cp.maxInstances, segs[i].instances)
	}
	return cp
}

// algorithm1Estimate is the reference estimate: every Algorithm 1 draw
// priced with priceSchedule and reduced like the segment oracle's own
// samples.
func algorithm1Estimate(t testing.TB, m *monteCarlo, p Plan) Estimate {
	t.Helper()
	cp, rows := algorithm1(t, m, p)
	return m.summarize(cp, rows)
}

// algorithm1Breakdown is the reference breakdown over Algorithm 1 draws.
func algorithm1Breakdown(t testing.TB, m *monteCarlo, p Plan) []StageEstimate {
	t.Helper()
	cp, rows := algorithm1(t, m, p)
	return m.breakdown(cp, rows, p)
}

// sumIters is the latency distribution of n i.i.d. iterations drawn from
// d, whose moments stats.SumMoment takes: normal and deterministic
// iteration latencies collapse analytically, others sum draws (repeat).
func sumIters(d stats.Dist, n int) stats.Dist {
	if n < 0 {
		panic("sim: negative iteration count")
	}
	switch v := d.(type) {
	case stats.Deterministic:
		return stats.Deterministic{Value: float64(n) * v.Value}
	case stats.Normal:
		return stats.Normal{Mu: float64(n) * v.Mu, Sigma: math.Sqrt(float64(n)) * v.Sigma}
	default:
		return repeat{d: d, n: n}
	}
}

// repeat is the distribution of the sum of n independent draws from d:
// n iterations of latency d back to back.
type repeat struct {
	d stats.Dist
	n int
}

// Sample draws n values from d and returns their sum.
func (s repeat) Sample(r *stats.RNG) float64 {
	var sum float64
	for i := 0; i < s.n; i++ {
		sum += s.d.Sample(r)
	}
	return sum
}

// Mean returns n times d's mean.
func (s repeat) Mean() float64 { return float64(s.n) * s.d.Mean() }

// Var returns n times d's variance (independent draws).
func (s repeat) Var() float64 { return float64(s.n) * s.d.Var() }

func (s repeat) String() string { return fmt.Sprintf("sum(%d x %s)", s.n, s.d) }

// latNonNeg is stats.NonNeg extended to repeat: a sum of draws that are
// never negative is never negative.
func latNonNeg(d stats.Dist) bool {
	if r, ok := d.(repeat); ok {
		return stats.NonNeg(r.d)
	}
	return stats.NonNeg(d)
}

// nodes returns the node count of the segment's stage: SCALE and the
// INITs when the cluster grows, the TRAINs, and SYNC.
func (sg *segment) nodes() int {
	n := int(sg.trials) + 1
	if sg.grow > 0 {
		n += 1 + int(sg.grow)
	}
	return n
}

// fullDAGChecked builds the plan's full execution DAG and checks that
// each stage's segment has exactly that stage's nodes.
func fullDAGChecked(t *testing.T, sm *Simulator, p Plan) *Graph {
	t.Helper()
	b, err := buildFullDAG(sm, p)
	if err != nil {
		t.Fatal(err)
	}
	var cp compiledPlan
	if err := sm.compile(p, &cp); err != nil {
		t.Fatal(err)
	}
	for i := range cp.segs {
		if got, want := cp.seg(i).nodes(), b.lo[i+1]-b.lo[i]; got != want {
			t.Errorf("plan %v stage %d: segment has %d nodes, full DAG stage has %d", p, i, got, want)
		}
	}
	return b.graph
}

// near reports whether a and b agree to rel relative to the larger
// magnitude, with an absolute floor of rel for values near zero.
func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestSegmentDrawsMatchFullDAG: threading one RNG stream through a plan's
// compiled stage segments in stage order reproduces Algorithm 1's draw
// over the plan's full execution DAG, stage by stage and draw by draw, to
// 1e-12 relative. This checks buildSegment against the paper's DAG on
// every plan shape: each segment must hold its stage's nodes, consume
// draws in the full graph's node order, carry the same billing metadata,
// and condense to the same sync-to-sync duration, SCALE finish and
// training GPU-seconds.
func TestSegmentDrawsMatchFullDAG(t *testing.T) {
	mc := stochasticMC(t, 60, 19)
	sm := mc.s
	stages := sm.Spec().NumStages()
	grow := Uniform(3, stages) // scales up mid-job: a second SCALE
	for i := stages / 2; i < stages; i++ {
		grow.Alloc[i] = 16
	}
	for _, plan := range append(testPlans(sm), grow) {
		fullDAGChecked(t, sm, plan)
		ref, want := algorithm1(t, mc, plan)
		var cp compiledPlan
		if err := sm.compile(plan, &cp); err != nil {
			t.Fatal(err)
		}
		for i := range cp.segs {
			sg, r := cp.seg(i), ref.seg(i)
			if sg.instances != r.instances || sg.grow != r.grow || sg.trainGPUs != r.trainGPUs {
				t.Fatalf("plan %v stage %d: segment metadata {inst %d grow %d gpus %d}, full DAG {inst %d grow %d gpus %d}",
					plan, i, sg.instances, sg.grow, sg.trainGPUs, r.instances, r.grow, r.trainGPUs)
			}
		}
		if cp.maxInstances != ref.maxInstances {
			t.Fatalf("plan %v: peak instances %d, full DAG %d", plan, cp.maxInstances, ref.maxInstances)
		}
		base := planStream(mc, plan)
		var buf []float64
		for k := 0; k < mc.samples; k++ {
			r := base.Stream(uint64(k))
			for i := range cp.segs {
				var got segSample
				sg := cp.seg(i)
				d := sm.segDists(sg)
				got, buf = sg.eval(&d, r, buf)
				w := want[i][k]
				if !near(got.dur, w.dur, 1e-12) || !near(got.scaleFin, w.scaleFin, 1e-12) || !near(got.trainSec, w.trainSec, 1e-12) {
					t.Fatalf("plan %v draw %d stage %d: segment %+v, full DAG %+v", plan, k, i, got, w)
				}
			}
		}
	}
}

// TestSegmentProgramsMatchFullDAG: each stage's kernel draws and
// propagates exactly what the program CompileRange cuts from the plan's
// full execution DAG at that stage's bounds does. Driven from the same
// stream, both give the same segSample bit for bit, and both propagate
// the same duration, SCALE-finish and training-time moments.
func TestSegmentProgramsMatchFullDAG(t *testing.T) {
	mc := stochasticMC(t, 60, 19)
	sm := mc.s
	stages := sm.Spec().NumStages()
	grow := Uniform(3, stages) // scales up mid-job: a second SCALE
	for i := stages / 2; i < stages; i++ {
		grow.Alloc[i] = 16
	}
	analytic := 0
	for _, plan := range append(testPlans(sm), grow) {
		b, err := buildFullDAG(sm, plan)
		if err != nil {
			t.Fatal(err)
		}
		var cp compiledPlan
		if err := sm.compile(plan, &cp); err != nil {
			t.Fatal(err)
		}
		for i := range cp.segs {
			sg, lo := cp.seg(i), b.lo[i]
			ref := &refSegment{
				prog:     CompileRange(b.graph, lo, b.lo[i+1]),
				scaleIdx: b.scaleID[i],
				trainLo:  b.trainIDs[i][0] - lo,
				trainHi:  b.trainIDs[i][len(b.trainIDs[i])-1] + 1 - lo,
			}
			if ref.scaleIdx >= 0 {
				ref.scaleIdx -= lo
			}
			if sg.nodes() != ref.prog.Len() || int(sg.trials) != ref.trainHi-ref.trainLo {
				t.Fatalf("plan %v stage %d: segment {nodes %d trials %d}, full DAG {nodes %d trials %d}",
					plan, i, sg.nodes(), sg.trials, ref.prog.Len(), ref.trainHi-ref.trainLo)
			}
			base := mc.segStream(sg.key)
			d := sm.segDists(sg)
			var fin []float64
			var wbuf []Timing
			for k := 0; k < mc.samples; k++ {
				var got, want segSample
				got, fin = sg.eval(&d, base.Stream(uint64(k)), fin)
				want, wbuf = ref.eval(base.Stream(uint64(k)), wbuf)
				if got != want {
					t.Fatalf("plan %v stage %d draw %d: kernel %+v, CompileRange %+v", plan, i, k, got, want)
				}
			}
			got, want := *sm.tab.moms.at(sm.segmentMoments(cp.segs[i])), ref.moments()
			if got != want {
				t.Fatalf("plan %v stage %d: kernel moments %+v, CompileRange %+v", plan, i, got, want)
			}
			if got.ok {
				analytic++
			}
		}
	}
	if analytic == 0 {
		t.Fatal("no segment supported analytic moments; the moment comparison is vacuous")
	}
}
