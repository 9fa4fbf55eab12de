package sim

import (
	"repro/internal/cloud"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/stats"
)

// segStreamDomain separates the segment-keyed RNG stream family from any
// other Hash64 users.
const segStreamDomain = 0x7365676d656e7431 // "segment1"

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

// provLats are the cloud profile's SCALE (queueing) and INIT_INSTANCE
// latencies, compiled once per Simulator. They depend on nothing else,
// so every segment of the Simulator refers to the one copy.
type provLats struct {
	scale, init stats.Lat
}

// segment is one stage's sub-DAG of the execution DAG (§4.2, Figure 7)
// held in closed form: the stage's fork-join shape and its three
// compiled latencies, plus the metadata the cost model needs to replay a
// sampled segment against the billing rules. Every stage has the same
// shape: a SCALE request and grow parallel INIT_INSTANCEs after it when
// the cluster grows, trials TRAINs in opening slots, and a closing SYNC
// barrier. All cross-stage edges of the full execution DAG pass through
// that single SYNC, so a segment evaluates zero-based (the previous
// barrier is time zero) and plan-level quantities recombine from
// per-segment samples. A segment's shape and latencies are immutable
// after construction and safe for concurrent use.
//
// The record is kept to 80 bytes (TestSegmentRecordSize): the shape is
// int32, the SCALE and INIT latencies, which only the cloud profile
// fixes, stay with the Simulator (provLats), and the filled sample
// vector and moments are refs into the table's slabs.
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
	// train is the TRAIN latency (SYNC takes none).
	train stats.Lat

	// samples and mom refer to the segment's sample
	// vector and moments in the table's slabs, 0 until filled. Each is
	// filled on first use under Simulator.mu and never changes
	// afterwards. mom is filled by every estimate, samples only by the
	// Monte-Carlo fallback and Breakdown.
	samples, mom ref
}

// segSample is the sufficient statistic one Monte-Carlo draw of one
// segment contributes to plan estimation: the segment's zero-based
// wall-clock span, the finish time of its SCALE request (0 when the
// cluster does not grow), and the total busy GPU-slot seconds across its
// TRAIN nodes. JCT recombination chains dur across stages; billing replay
// derives instance births from scaleFin and training GPU-time from
// trainSec.
type segSample struct {
	dur, scaleFin, trainSec float64
}

// eval draws one execution of the segment and condenses it to its
// segSample. It samples the stage's nodes in DAG order — SCALE, the
// INITs, then the TRAINs — and, exactly as a node-by-node pass over the
// sub-DAG would, starts each node at the largest of zero and its
// dependencies' finishes and takes the span as the largest finish. The
// INITs and the TRAINs are each drawn into lat in one batch (one opcode
// dispatch, the same stream consumption as a draw per node); each TRAIN's
// latency is then overwritten by its finish, so TRAIN tr starts at the
// finish of TRAIN tr−opening, the previous one in its slot. prov holds
// the Simulator's SCALE and INIT latencies. lat is scratch, reused when
// it holds max(grow, trials) and returned for the next draw.
//
//rbvet:pure
//rbvet:noalloc
func (sg *segment) eval(prov *provLats, r *stats.RNG, lat []float64) (segSample, []float64) {
	if n := int(max(sg.grow, sg.trials)); cap(lat) < n {
		//rbvet:ignore noalloc — cold path: grows once per worker slot to the widest stage; steady-state draws reuse lat
		lat = make([]float64, n)
	}
	var out segSample
	var span, open float64 // largest finish so far; the opening TRAINs' start
	if sg.grow > 0 {
		var start float64 // the INITs' start, once the SCALE finishes
		out.scaleFin = start + prov.scale.Sample(r)
		if out.scaleFin > start {
			start = out.scaleFin
		}
		span = start
		inits := lat[:sg.grow]
		prov.init.SampleInto(r, inits)
		for _, d := range inits {
			if f := start + d; f > open {
				open = f
			}
		}
		if open > span {
			span = open
		}
	}
	fin := lat[:sg.trials]
	sg.train.SampleInto(r, fin)
	for tr := range fin {
		start := open
		if prev := tr - int(sg.opening); prev >= 0 {
			start = 0
			if f := fin[prev]; f > 0 {
				start = f
			}
		}
		f := start + fin[tr]
		fin[tr] = f
		out.trainSec += f - start
		if f > span {
			span = f
		}
	}
	// The SYNC barrier finishes at the latest TRAIN finish, already in
	// span.
	out.dur = span
	return out, lat
}

// compiledPlan is a plan resolved to its per-stage segments plus the
// plan-level constants the cost model needs, and each segment's sample
// vector and moments as compile found them: 0 until filled (see
// sampleVectors and AnalyticEval.Estimate). Its columns are refs into
// tab's slabs, not pointers, so a compiled plan in pooled scratch is
// never cleared and storing into it takes no write barrier.
type compiledPlan struct {
	tab  *segTable
	segs []ref
	vecs []ref
	moms []ref
	// maxInstances is the peak cluster size, which fixes the data-ingress
	// charge under LIFO deprovisioning.
	maxInstances int32
}

// seg returns stage i's segment. Its shape and latencies are immutable,
// so it may be read without the lock.
func (cp *compiledPlan) seg(i int) *segment { return cp.tab.segs.at(cp.segs[i]) }

// row returns stage i's Monte-Carlo draw k; stage i's vector is filled.
func (cp *compiledPlan) row(i, k int) segSample { return *cp.tab.samples.at(cp.vecs[i] + ref(k)) }

// mom returns stage i's moments; they are filled.
func (cp *compiledPlan) mom(i int) *segMoment { return cp.tab.moms.at(cp.moms[i]) }

// compile resolves a plan into cp, a buffer the caller owns, composing
// table-shared segments and reusing cp's columns, so a warm compile into
// a reused buffer allocates nothing. The whole plan resolves under one
// acquisition of s.mu, which also snapshots each segment's filled sample
// vector and moments. A segment missing from the table is built outside
// the lock and stored first-write-wins when the walk resumes under it.
//
//rbvet:noalloc
func (s *Simulator) compile(p Plan, cp *compiledPlan) error {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return err
	}
	cp.segs, cp.vecs, cp.moms, cp.maxInstances = cp.segs[:0], cp.vecs[:0], cp.moms[:0], 0
	var prev int32
	s.mu.Lock()
	t := s.tab
	cp.tab = t
	for i, alloc := range p.Alloc {
		key := segKey{stage: int32(i), alloc: int32(canonAlloc(alloc, s.spec.Stage(i).Trials)), prev: prev}
		h, _ := t.index.get(key)
		if h == 0 {
			s.mu.Unlock()
			built := s.buildSegment(key)
			s.mu.Lock()
			h = t.storeLocked(&built)
		}
		sg := t.segs.at(h)
		cp.segs = append(cp.segs, h)
		cp.vecs = append(cp.vecs, sg.samples)
		cp.moms = append(cp.moms, sg.mom)
		prev = sg.instances
		cp.maxInstances = max(cp.maxInstances, sg.instances)
	}
	s.mu.Unlock()
	return nil
}

// canonAlloc maps a stage allocation to its behavioral representative:
// above the trial count only the fair per-trial share alloc/trials is
// ever used (by the DAG builder, the placement sizing, and the billing),
// so every allocation in [k·trials, (k+1)·trials) executes identically
// to k·trials. Keying segments by the representative makes equivalent
// allocations share segments, sample vectors, and — because
// segStream hashes the key — the exact same common random numbers, which
// is what lets Estimate's plan memo key whole plans by their canonical
// allocations without changing any estimate.
func canonAlloc(alloc, trials int) int {
	if alloc >= trials {
		return alloc - alloc%trials
	}
	return alloc
}

// storeLocked stores built under its key unless another caller stored
// that key first, and returns the stored segment's ref: the first write
// wins, so every caller shares one segment per key and with it the
// segment's lazily filled samples and moments. The record is carved from
// the table's segment slab. The caller holds the Simulator's lock.
func (t *segTable) storeLocked(built *segment) ref {
	h, found := t.index.put(built.key)
	if !found {
		run, r := t.segs.take(1)
		run[0] = *built
		*h = r
	}
	return *h
}

// buildSegment resolves one stage's zero-based sub-DAG of the execution
// DAG (§4.2, Figure 7) to its shape and compiled latencies. The stage
// opens with a blocking SCALE request plus parallel INIT_INSTANCEs if the
// cluster must grow, runs parallel TRAINs (chained serially by slot when
// the stage has fewer GPUs than trials), and closes with a SYNC barrier;
// the previous stage's SYNC is the implicit time-zero source. The cluster
// is sized the way the placement controller packs it (co-located
// trials), so predicted instance counts, and with them per-instance cost,
// match execution. Deprovisioning is a zero-latency, zero-cost event and
// is not represented (the cost model's per-stage instance counts account
// for it). The build allocates nothing: the record is returned by value
// for compile to store, the provisioning latencies were compiled once,
// in New and stay with the Simulator, and the iteration distribution
// comes from the table's share column.
//
//rbvet:pure
func (s *Simulator) buildSegment(key segKey) segment {
	st := s.spec.Stage(int(key.stage))
	alloc, gpn := int(key.alloc), s.cloud.Instance.GPUs
	per := 1 // GPUs per TRAIN
	var need int
	if alloc >= st.Trials {
		per = alloc / st.Trials
		need = placement.NodesNeeded(st.Trials, per, gpn)
	} else {
		need = placement.NodesNeeded(alloc, 1, gpn)
	}
	return segment{
		key:       key,
		grow:      int32(max(need-int(key.prev), 0)),
		trials:    int32(st.Trials),
		opening:   int32(min(alloc, st.Trials)),
		trainGPUs: int32(per),
		instances: int32(need),
		train:     stats.SumLat(s.iterShare(per).dist, st.Iters),
	}
}

// segStream returns the root generator of a segment tuple's stream
// family. Deriving streams from the tuple rather than the plan is what
// makes segment samples reusable across plans: every plan that executes
// this tuple sees the same draws (common random numbers).
func (s *Simulator) segStream(key segKey) (r stats.RNG) {
	s.root.StreamInto(stats.Hash64(segStreamDomain, uint64(key.stage), uint64(key.alloc), uint64(key.prev)), &r)
	return r
}

// segmentSamples returns the ref of the s.samples-long sample vector of
// the segment h refers to, filling it on first use. Sample k always
// draws from the k-th stream of the tuple's family and slots are
// index-addressed, so the vector is bit-identical at any worker count. A
// miss carves the vector from the table's sample slab under the lock and
// fills it outside; streams and latency buffers come from fillPool.
func (s *Simulator) segmentSamples(h ref) ref {
	s.mu.Lock()
	t := s.tab
	sg := t.segs.at(h)
	v := sg.samples
	var fresh []segSample
	if v == 0 {
		fresh, v = t.samples.take(s.samples)
	}
	s.mu.Unlock()
	if fresh == nil {
		return v
	}
	fs := fillPool.Get().(*fillScratch)
	fs.base = s.segStream(sg.key)
	n := s.workerSlots()
	if len(fs.slots) < n {
		fs.slots = append(fs.slots, make([]fillSlot, n-len(fs.slots))...)
	}
	if n == 1 {
		// Serial fill without the fan-out's closure, which would escape.
		for k := range fresh {
			fs.draw(sg, &s.prov, fresh, 0, k)
		}
	} else {
		par.ForEachWorker(s.samples, s.Workers(), func(w, k int) { fs.draw(sg, &s.prov, fresh, w, k) })
	}
	fillPool.Put(fs)
	s.mu.Lock()
	if sg.samples == 0 {
		sg.samples = v
	}
	v = sg.samples
	s.mu.Unlock()
	return v
}

// workerSlots returns the number of distinct worker slots a Monte-Carlo
// fan-out over s.samples can occupy (see par.ForEachWorker).
func (s *Simulator) workerSlots() int {
	n := s.Workers()
	if n > s.samples {
		n = s.samples
	}
	if n < 1 {
		n = 1
	}
	return n
}

// sampleVectors fills the sample vectors compile found unfilled, so
// every cp.row may be read.
func (s *Simulator) sampleVectors(cp *compiledPlan) {
	for i, v := range cp.vecs {
		if v == 0 {
			cp.vecs[i] = s.segmentSamples(cp.segs[i])
		}
	}
}

// cohort is count instances born together at birth: one growth event on
// priceSchedule's LIFO billing stack.
type cohort struct {
	birth float64
	count int
}

// priceSchedule replays Monte-Carlo draw k of a compiled plan's filled
// segment rows against the billing model: stage durations chain into absolute
// time, per-instance billing replays LIFO instance lifetimes (births
// derived from each growth stage's SCALE finish, deaths at stage
// boundaries or job completion, subject to the minimum charge), and
// per-function billing sums training GPU-seconds. It returns the
// recombined JCT and total cost including data ingress. stack is a
// reusable scratch buffer, returned (emptied) for the next call.
//
// The per-instance replay keeps the alive instances as a LIFO stack of
// cohorts, AnalyticEval.price's birthGroup stack: the instances of one
// cohort die together, so their charges are equal and the replay
// computes each once. It still adds a charge once per instance, in the
// order a per-instance stack pops them (a shrink from the top, the
// survivors from the bottom), so the cost is bit-identical to billing
// every instance separately.
//
//rbvet:noalloc
func (s *Simulator) priceSchedule(cp *compiledPlan, k int, stack []cohort) (jct, cost float64, _ []cohort) {
	pr := s.cloud.Pricing
	cost = float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)

	if pr.Billing == cloud.PerFunction {
		pg := s.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i := range cp.segs {
			sg, row := cp.seg(i), cp.row(i, k)
			jct += row.dur
			cost += row.trainSec * float64(sg.trainGPUs) * pg
		}
		return jct, cost, stack
	}

	alive := 0
	stack = stack[:0]
	stageStart := 0.0
	for i := range cp.segs {
		sg, row := cp.seg(i), cp.row(i, k)
		want := int(sg.instances)
		if want > alive {
			birth := stageStart
			if sg.grow > 0 {
				birth = stageStart + row.scaleFin // after queueing
			}
			stack = append(stack, cohort{birth: birth, count: want - alive})
			alive = want
		}
		for alive > want {
			top := &stack[len(stack)-1]
			n := min(top.count, alive-want)
			charge := s.instanceCharge(top.birth, stageStart)
			for j := 0; j < n; j++ {
				cost += charge
			}
			if top.count -= n; top.count == 0 {
				stack = stack[:len(stack)-1]
			}
			alive -= n
		}
		stageStart += row.dur
	}
	for _, c := range stack {
		charge := s.instanceCharge(c.birth, stageStart)
		for j := 0; j < c.count; j++ {
			cost += charge
		}
	}
	return stageStart, cost, stack[:0]
}
