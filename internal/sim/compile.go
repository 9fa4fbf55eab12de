package sim

import (
	"repro/internal/placement"
	"repro/internal/stats"
)

// segKey identifies one stage segment of an execution DAG up to
// isomorphism within a single Simulator: the stage index fixes the trial
// count and iteration budget, alloc the per-trial GPU share and target
// cluster size, and prev — the instance count carried in from the previous
// stage — whether the segment opens with a SCALE request and how many
// INIT_INSTANCE nodes follow it. Two plans whose stage i agrees on
// (alloc, prev) execute bit-identical segments there. The fields are
// int32 to keep the key, and the segment record that embeds it, compact.
type segKey struct {
	stage, alloc, prev int32
}

// hash packs the stage and allocation into one word and mixes in the
// previous instance count; the index spreads it with a Fibonacci
// multiply.
func (k segKey) hash() uint64 {
	return (uint64(uint32(k.stage)) | uint64(uint32(k.alloc))<<32) ^ uint64(uint32(k.prev))*0xff51afd7ed558ccd
}

// provLats are the moments of the cloud profile's SCALE (queueing) and
// INIT_INSTANCE latencies, taken once per Simulator. They depend on
// nothing else, so every segment of the Simulator refers to the one
// copy.
type provLats struct {
	scale, init stats.Moment
}

// segment is one stage's sub-DAG of the execution DAG (§4.2, Figure 7)
// held in closed form: the stage's fork-join shape and the moments of
// its TRAIN latency, plus the metadata the cost model needs to price
// the stage against the billing rules. Every stage has the same shape:
// a SCALE request and grow parallel INIT_INSTANCEs after it when the
// cluster grows, trials TRAINs in opening slots, and a closing SYNC
// barrier. All cross-stage edges of the full execution DAG pass through
// that single SYNC, so a segment evaluates zero-based (the previous
// barrier is time zero) and plan-level quantities recombine from
// per-segment moments. A segment's shape and TRAIN moments are
// immutable after construction.
//
// The record is kept to 56 bytes and holds no pointer
// (TestSegmentRecordSize): the shape is int32, the SCALE and INIT
// moments, which only the cloud profile fixes, stay with the Simulator
// (provLats), and the filled moments are a ref into the table's moment
// slab.
type segment struct {
	key segKey
	// grow is the INIT_INSTANCE count, one per instance the cluster
	// grows by; 0 means the stage opens without a SCALE request.
	grow int32
	// trials TRAINs run in opening slots: TRAIN tr runs in slot
	// tr % opening, the first opening TRAINs after every INIT and each
	// later one after its slot's previous TRAIN.
	trials, opening int32
	// trainGPUs is the per-trial GPU count every TRAIN shares.
	trainGPUs int32
	// instances is the cluster size (machines) during the stage.
	instances int32
	// train is the TRAIN latency's moments (SYNC takes none), valid
	// when trainOK: the latency has finite moments. trainNonNeg reports
	// that it provably never samples below zero.
	train                stats.Moment
	trainOK, trainNonNeg bool

	// mom refers to the segment's moments in the table's moment slab,
	// 0 until filled. It is filled on first use and never changes
	// afterwards.
	mom ref
}

// compiledPlan is a plan resolved to its per-stage segments plus the
// plan-level constants the cost model needs, and each segment's moments
// as compile found them: 0 until filled (see fill). Its columns are
// refs into tab's slabs, not pointers, so a compiled plan kept in
// scratch is never cleared and storing into it takes no write barrier.
type compiledPlan struct {
	tab  *segTable
	segs []ref
	moms []ref
	// maxInstances is the peak cluster size, which fixes the data-ingress
	// charge under LIFO deprovisioning.
	maxInstances int32
}

// seg returns stage i's segment.
func (cp *compiledPlan) seg(i int) *segment { return cp.tab.segs.at(cp.segs[i]) }

// mom returns stage i's moments; they are filled.
func (cp *compiledPlan) mom(i int) *segMoment { return cp.tab.moms.at(cp.moms[i]) }

// compile resolves a plan into cp, a buffer the caller owns, composing
// table-shared segments and reusing cp's columns, so a warm compile into
// a reused buffer allocates nothing. It also snapshots each segment's
// filled moments. A segment missing from the table is built and stored.
//
//rbvet:noalloc
func (s *Simulator) compile(p Plan, cp *compiledPlan) error {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return err
	}
	cp.segs, cp.moms, cp.maxInstances = cp.segs[:0], cp.moms[:0], 0
	var prev int32
	t := s.tab
	cp.tab = t
	for i, alloc := range p.Alloc {
		key := segKey{stage: int32(i), alloc: int32(canonAlloc(alloc, s.spec.Stage(i).Trials)), prev: prev}
		h, _ := t.index.get(key)
		if h == 0 {
			built := s.buildSegment(key)
			h = t.store(&built)
		}
		sg := t.segs.at(h)
		cp.segs = append(cp.segs, h)
		cp.moms = append(cp.moms, sg.mom)
		prev = sg.instances
		cp.maxInstances = max(cp.maxInstances, sg.instances)
	}
	return nil
}

// canonAlloc maps a stage allocation to its behavioral representative:
// above the trial count only the fair per-trial share alloc/trials is
// ever used (by the DAG builder, the placement sizing, and the billing),
// so every allocation in [k·trials, (k+1)·trials) executes identically
// to k·trials. Keying segments by the representative makes equivalent
// allocations share segments and moments, which is what lets Estimate's
// plan memo key whole plans by their canonical allocations without
// changing any estimate.
func canonAlloc(alloc, trials int) int {
	if alloc >= trials {
		return alloc - alloc%trials
	}
	return alloc
}

// store stores built under its key unless the key is stored already,
// and returns the stored segment's ref, so every plan shares one
// segment per key and with it the segment's lazily filled moments. The
// record is carved from the table's segment slab.
func (t *segTable) store(built *segment) ref {
	h, found := t.index.put(built.key)
	if !found {
		run, r := t.segs.take(1)
		run[0] = *built
		*h = r
	}
	return *h
}

// buildSegment resolves one stage's zero-based sub-DAG of the execution
// DAG (§4.2, Figure 7) to its shape and TRAIN moments. The stage
// opens with a blocking SCALE request plus parallel INIT_INSTANCEs if the
// cluster must grow, runs parallel TRAINs (chained serially by slot when
// the stage has fewer GPUs than trials), and closes with a SYNC barrier;
// the previous stage's SYNC is the implicit time-zero source. The cluster
// is sized the way the placement controller packs it (co-located
// trials), so predicted instance counts, and with them per-instance cost,
// match execution. Deprovisioning is a zero-latency, zero-cost event and
// is not represented (the cost model's per-stage instance counts account
// for it). The build allocates nothing: the record is returned by value
// for compile to store, the provisioning moments were taken once, in
// Init, and stay with the Simulator, and the iteration distribution
// comes from the table's share column. A TRAIN runs the stage's
// iterations back to back, so its latency is their total (SumMoment);
// it is non-negative when one iteration is (Iters is at least 1).
//
//rbvet:pure
func (s *Simulator) buildSegment(key segKey) segment {
	st := s.spec.Stage(int(key.stage))
	alloc := int(key.alloc)
	per, need := stageShape(st.Trials, alloc, s.cloud.Instance.GPUs)
	d := s.iterShare(per).dist
	train, ok := stats.SumMoment(d, st.Iters)
	return segment{
		key:         key,
		grow:        int32(max(need-int(key.prev), 0)),
		trials:      int32(st.Trials),
		opening:     int32(min(alloc, st.Trials)),
		trainGPUs:   int32(per),
		instances:   int32(need),
		train:       train,
		trainOK:     ok,
		trainNonNeg: stats.NonNeg(d),
	}
}

// stageShape returns the GPUs per TRAIN and the instances of a stage of
// trials trials on alloc GPUs, on instances of gpn GPUs each: a stage
// with at least one GPU per trial gives each trial alloc/trials GPUs,
// a smaller one runs one GPU per slot, and the cluster is packed the way
// the placement controller packs it (co-located trials).
func stageShape(trials, alloc, gpn int) (per, instances int) {
	if alloc >= trials {
		per = alloc / trials
		return per, placement.NodesNeeded(trials, per, gpn)
	}
	return 1, placement.NodesNeeded(alloc, 1, gpn)
}
