// Package planner generates resource allocation plans for hyperparameter
// tuning jobs under a time constraint (§4.3).
//
// Three policies are provided:
//
//   - Static: the baseline from §3.2 — enumerate static cluster sizes and
//     return the cost-optimal one whose predicted JCT meets the deadline.
//   - NaiveElastic: the prior-work baseline from §6.3.1 — the cluster is
//     resized per stage but every trial keeps a fixed GPU allocation
//     across stages.
//   - Elastic: RubberBand's greedy optimizer (Algorithm 2) — warm-started
//     from the cost-optimal static allocation (and configurable multiples
//     of it), it iteratively decrements per-stage allocations, selecting
//     the candidate with the highest cost-marginal benefit (Equation 1)
//     until no candidate improves cost or all violate the deadline.
//
// All policies evaluate candidates exclusively through the simulator
// (package sim), treating it as a black box.
package planner

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/spec"
)

// Result is a planning outcome: the chosen plan and its predicted
// performance.
type Result struct {
	Plan     sim.Plan
	Estimate sim.Estimate
}

// Planner searches the allocation-plan space for one job. A search runs
// serially on its caller's goroutine and estimates every candidate
// through Sim, so a Planner belongs to whichever goroutine owns its
// Simulator. Planners that take turns on one Simulator share its plan
// memo. Each search borrows its working memory from a pool
// (searchScratch) and returns only plans it cloned out of it.
type Planner struct {
	// Sim predicts JCT and cost for candidate plans.
	Sim *sim.Simulator
	// Deadline is the job's time constraint in seconds.
	Deadline float64
	// MaxGPUs caps the static enumeration and therefore the peak cluster
	// size any plan may request. Zero selects a default of
	// max(64, 4 × first-stage trials).
	MaxGPUs int
	// Delta is the minimum predicted cost improvement (in dollars) for
	// the greedy loop to continue. Zero selects a small default.
	Delta float64
	// WarmStartMultipliers scales the static-optimal warm start to widen
	// the search (§4.3): the optimizer never increases allocations, so
	// each multiplier bounds a different region. Nil selects {1, 2, 3}.
	WarmStartMultipliers []int
	// DisableInstanceStep removes the instance-boundary candidates from
	// greedy generation, leaving only the paper's plain fair decrement.
	// Under per-instance billing this stalls the search on sub-instance
	// steps; exposed for the design-choice ablation.
	DisableInstanceStep bool
	// RawCostSelection selects greedy candidates by raw predicted cost
	// reduction instead of Equation 1's JCT-normalized marginal benefit;
	// exposed for the design-choice ablation.
	RawCostSelection bool
	// Workers configures nothing.
	//
	// Deprecated: a search estimates its candidates serially, on its
	// Simulator's goroutine; the worker bound is ignored.
	Workers int

	// estCalls counts estimate() invocations, for the search-efficiency
	// diagnostic exposed by EstimateCalls.
	estCalls int64
}

// estimate evaluates a plan, counting the call. The Simulator memoizes
// whole-plan estimates under canonical allocations, so the greedy loop
// never re-simulates an allocation it has already scored (successive
// iterations share most of their candidate sets), and behaviorally
// identical candidates share one evaluation. The other plan-level memo,
// each search's walked-path record (searchScratch.walked), lets a
// warm-start descent that reaches an earlier descent's plan skip the
// rest of the walk entirely.
func (p *Planner) estimate(plan sim.Plan) (sim.Estimate, error) {
	p.estCalls++
	return p.Sim.Estimate(plan)
}

// estimateAll estimates every candidate into ests and errs, in
// candidate order, writing errs[i] only for an error: the error column
// holds nil everywhere else (see searchScratch.columns), so a clean
// estimate stores no pointer.
func (p *Planner) estimateAll(cands []sim.Plan, ests []sim.Estimate, errs []error) {
	for i := range cands {
		est, err := p.estimate(cands[i])
		ests[i] = est
		if err != nil {
			errs[i] = err
		}
	}
}

// ErrInfeasible is returned when no plan within MaxGPUs meets the deadline.
var ErrInfeasible = fmt.Errorf("planner: no feasible plan within resource cap")

func (p *Planner) maxGPUs() int {
	if p.MaxGPUs > 0 {
		return p.MaxGPUs
	}
	return DefaultMaxGPUs(p.Sim.Spec())
}

// DefaultMaxGPUs is the peak-GPU cap a Planner with zero MaxGPUs uses
// for sp: max(64, 4 × first-stage trials).
func DefaultMaxGPUs(sp *spec.ExperimentSpec) int {
	return max(64, 4*sp.TotalTrials())
}

// Policy selects a planning search.
type Policy int

const (
	// PolicyRubberBand is the elastic cost-minimizing search (§4.3,
	// PlanElastic).
	PolicyRubberBand Policy = iota
	// PolicyStatic is the cost-optimal fixed-cluster baseline (§3.2,
	// PlanStatic).
	PolicyStatic
	// PolicyNaiveElastic resizes the cluster but keeps a fixed per-trial
	// allocation, as in prior work (§6.3.1, PlanNaiveElastic).
	PolicyNaiveElastic
)

// String returns the policy name used in tables.
func (p Policy) String() string {
	switch p {
	case PolicyRubberBand:
		return "RubberBand"
	case PolicyStatic:
		return "Static"
	case PolicyNaiveElastic:
		return "Naive elastic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a policy name, "rubberband" (or empty), "static" or
// "naive", to its policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "rubberband":
		return PolicyRubberBand, nil
	case "static":
		return PolicyStatic, nil
	case "naive":
		return PolicyNaiveElastic, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want rubberband, static or naive)", name)
	}
}

// Plan runs the search policy selects.
func (p *Planner) Plan(policy Policy) (Result, error) {
	switch policy {
	case PolicyRubberBand:
		return p.PlanElastic()
	case PolicyStatic:
		return p.PlanStatic()
	case PolicyNaiveElastic:
		return p.PlanNaiveElastic()
	default:
		return Result{}, fmt.Errorf("planner: unknown policy %v", policy)
	}
}

func (p *Planner) delta() float64 {
	if p.Delta > 0 {
		return p.Delta
	}
	return 0.01
}

func (p *Planner) warmStarts() []int {
	if len(p.WarmStartMultipliers) > 0 {
		return p.WarmStartMultipliers
	}
	return []int{1, 2, 3}
}

func (p *Planner) validate() error {
	if p.Sim == nil {
		return fmt.Errorf("planner: nil simulator")
	}
	if p.Deadline <= 0 {
		return fmt.Errorf("planner: non-positive deadline %v", p.Deadline)
	}
	return nil
}

// PlanStatic finds the cost-optimal static allocation meeting the
// deadline by one-dimensional enumeration (the warm-start procedure of
// §4.3 and the paper's fixed-cluster baseline). Cluster sizes are
// evaluated in ascending order, and ties go to the smallest cluster. On
// a warm Planner it allocates only the returned plan.
func (p *Planner) PlanStatic() (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	ss := newSearch()
	defer ss.release()
	res, err := p.planStatic(ss)
	if err != nil {
		return Result{}, err
	}
	res.Plan = res.Plan.Clone()
	return res, nil
}

// planStatic is PlanStatic's body on the search's scratch, so PlanElastic
// shares one set of static plans with its warm starts and descents. The
// returned plan aliases ss.static: callers clone it before it leaves the
// search.
//
// Two closed-form bounds keep sizes from being estimated. The mean JCT
// ignores provisioning overheads and straggler inflation, so it
// lower-bounds the estimated JCT: a size already over the deadline
// cannot become feasible. The Simulator's static cost floor
// lower-bounds the estimated cost: a size whose floor exceeds the
// cheapest feasible cost found so far cannot win, since only a strictly
// cheaper size replaces the best. Neither bound moves the result.
func (p *Planner) planStatic(ss *searchScratch) (Result, error) {
	n := p.maxGPUs()
	cands := ss.staticPlans(n, p.Sim.Spec().NumStages())
	ss.jcts = p.Sim.StaticClusterJCTs(n, ss.jcts)
	best := Result{}
	found := false
	for i, jct := range ss.jcts {
		if jct > p.Deadline {
			continue
		}
		if found {
			if floor, ok := p.Sim.StaticCostFloor(i + 1); ok && floor > best.Estimate.Cost {
				continue
			}
		}
		est, err := p.estimate(cands[i])
		if err != nil {
			return Result{}, err
		}
		if est.JCT <= p.Deadline && (!found || est.Cost < best.Estimate.Cost) {
			best = Result{Plan: cands[i], Estimate: est}
			found = true
		}
	}
	if !found {
		return Result{}, ErrInfeasible
	}
	return best, nil
}

// PlanNaiveElastic finds the cost-optimal plan within the constrained
// space of fixed per-trial allocations: each trial holds k GPUs in every
// stage, so the cluster shrinks with the trial count but trials are never
// re-scaled. This reproduces the prior-work baseline the paper compares
// against (§6.3.1).
func (p *Planner) PlanNaiveElastic() (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	sp := p.Sim.Spec()
	// k ranges over per-trial multipliers that keep the peak cluster within
	// the cap; k = 1 is always considered, mirroring the serial loop.
	kMax := p.maxGPUs() / sp.TotalTrials()
	if kMax < 1 {
		kMax = 1
	}
	best := Result{}
	found := false
	for k := 1; k <= kMax; k++ {
		alloc := make([]int, sp.NumStages())
		for j := range alloc {
			alloc[j] = sp.Stage(j).Trials * k
		}
		plan := sim.Plan{Alloc: alloc}
		est, err := p.estimate(plan)
		if err != nil {
			return Result{}, err
		}
		if est.JCT <= p.Deadline && (!found || est.Cost < best.Estimate.Cost) {
			best = Result{Plan: plan, Estimate: est}
			found = true
		}
	}
	if !found {
		return Result{}, ErrInfeasible
	}
	return best, nil
}

// PlanElastic runs RubberBand's greedy optimizer (Algorithm 2) from each
// warm start and returns the cheapest feasible plan found. The result is
// guaranteed to predict no worse than the cost-optimal static allocation,
// since that allocation is itself a warm start. On a warm Planner it
// allocates only the returned plan.
func (p *Planner) PlanElastic() (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	ss := newSearch()
	defer ss.release()
	return p.planElastic(ss)
}

// planElastic is PlanElastic's body on the search's scratch.
func (p *Planner) planElastic(ss *searchScratch) (Result, error) {
	staticBest, err := p.planStatic(ss)
	if err != nil {
		return Result{}, err
	}
	best := staticBest
	mults := p.warmStarts()
	warms := ss.warmStarts(staticBest.Plan, mults, p.maxGPUs())
	for d, mult := range mults {
		warm := warms[d]
		warmEst, err := p.estimate(warm)
		if err != nil {
			return Result{}, err
		}
		if warmEst.JCT > p.Deadline {
			// An inflated warm start can blow the deadline through
			// added provisioning overhead; skip it.
			if mult != 1 {
				continue
			}
		}
		res, err := p.optimize(ss, Result{Plan: warm, Estimate: warmEst})
		if err != nil {
			return Result{}, err
		}
		if res.Estimate.JCT <= p.Deadline && res.Estimate.Cost < best.Estimate.Cost {
			best = res
		}
	}
	// best may alias the static plans, a warm start or a step, all
	// scratch.
	best.Plan = best.Plan.Clone()
	return best, nil
}

// optimize is the greedy descent of Algorithm 2: each iteration
// estimates the candidate set (memoized, so candidates shared with
// earlier iterations cost nothing) and selects the winner in candidate
// order.
//
// A descent is a pure function of its current plan: the candidates come
// from the raw allocation, every estimate is pure, and the
// selection runs in a fixed order. So once cur is a plan an earlier
// descent of the same search had as its current plan, the rest of this
// descent would replay that one step for step; optimize returns the
// earlier descent's result instead. Plans are matched raw, not by memo
// key: canonically equal plans generate different candidate sets.
func (p *Planner) optimize(ss *searchScratch, start Result) (Result, error) {
	earlier := len(ss.walked) // the walked plans of earlier descents
	descent := len(ss.done)
	cur := start
	gpn := p.Sim.Cloud().Instance.GPUs
	if p.DisableInstanceStep {
		gpn = 0
	}
	sp := p.Sim.Spec()
	for {
		for _, w := range ss.walked[:earlier] {
			if slices.Equal(ss.walkedPlan(w), cur.Plan.Alloc) {
				return ss.finish(ss.done[w.descent]), nil
			}
		}
		ss.walk(cur.Plan, descent)
		cands := generateCandidates(&ss.cands, cur.Plan, sp, gpn)
		if len(cands) == 0 {
			return ss.finish(cur), nil
		}
		ests, errs := ss.columns(len(cands))
		p.estimateAll(cands, ests, errs)
		bestIdx := -1
		bestBenefit := math.Inf(-1)
		var bestEst sim.Estimate
		for i := range cands {
			if errs[i] != nil {
				return Result{}, errs[i]
			}
			est := ests[i]
			if est.JCT > p.Deadline {
				continue
			}
			var benefit float64
			if p.RawCostSelection {
				benefit = cur.Estimate.Cost - est.Cost
			} else {
				benefit = marginalBenefit(cur.Estimate, est)
			}
			if benefit > bestBenefit {
				bestIdx, bestBenefit, bestEst = i, benefit, est
			}
		}
		if bestIdx < 0 {
			return ss.finish(cur), nil // every candidate violates the constraint
		}
		if cur.Estimate.Cost-bestEst.Cost < p.delta() {
			return ss.finish(cur), nil // no candidate improves cost enough
		}
		// The candidate set is scratch the next step overwrites.
		cur = Result{Plan: ss.step(cands[bestIdx]), Estimate: bestEst}
	}
}

// marginalBenefit implements Equation 1: cost reduction normalized by the
// JCT increase it buys. When a candidate improves (or preserves) JCT as
// well as cost, the benefit is unboundedly good; when it worsens cost, it
// is unboundedly bad.
func marginalBenefit(cur, cand sim.Estimate) float64 {
	dCost := cur.Cost - cand.Cost
	dJCT := cand.JCT - cur.JCT
	if dCost <= 0 {
		return math.Inf(-1)
	}
	if dJCT <= 0 {
		return math.Inf(1)
	}
	return dCost / dJCT
}

// generateCandidates produces per-stage decrements of the current plan
// (§4.3) into c, replacing its previous contents. For each stage it
// proposes (a) the next lower fair value — the smallest decrement keeping
// the stage allocation a factor or multiple of the trial count, so
// resources always divide evenly — and (b) the largest fair value that
// releases at least one whole instance of gpusPerNode GPUs. Candidate (b)
// matters under per-instance billing, where cost only falls at instance
// boundaries: without it the greedy search stalls on sub-instance
// decrements that lengthen the stage without releasing any billed
// machine.
func generateCandidates(c *candSet, cur sim.Plan, sp *spec.ExperimentSpec, gpusPerNode int) []sim.Plan {
	c.reset(cur)
	for i := range cur.Alloc {
		trials := sp.Stage(i).Trials
		if v, ok := fairStepDown(cur.Alloc[i], trials); ok {
			c.add(i, v)
		}
		if gpusPerNode > 0 {
			curInstances := (cur.Alloc[i] + gpusPerNode - 1) / gpusPerNode
			if curInstances > 1 {
				target := (curInstances - 1) * gpusPerNode
				if v, ok := fairFloor(target, trials); ok && v < cur.Alloc[i] {
					c.add(i, v)
				}
			}
		}
	}
	return c.plans
}

// candSet collects distinct single-stage variants of one plan — at most
// two per stage — in one backing array. A search reuses one candSet for
// every step, so the plans it holds are valid only until the next reset.
type candSet struct {
	cur   sim.Plan
	back  []int
	plans []sim.Plan
}

// reset empties the set for cur's variants, presized for two per stage
// so adding never reallocates.
func (c *candSet) reset(cur sim.Plan) {
	n := len(cur.Alloc)
	c.cur = cur
	c.back = grow(c.back, 2*n*n)[:0]
	c.plans = grow(c.plans, 2*n)[:0]
}

// add appends cur with stage i set to v unless an equal candidate is
// already in the set.
func (c *candSet) add(i, v int) {
	for _, q := range c.plans {
		if isVariant(q, c.cur, i, v) {
			return
		}
	}
	lo := len(c.back)
	c.back = append(c.back, c.cur.Alloc...)
	c.back[lo+i] = v
	c.plans = append(c.plans, sim.Plan{Alloc: c.back[lo:len(c.back):len(c.back)]})
}

// isVariant reports whether q equals cur with stage i set to v, without
// building that plan.
func isVariant(q, cur sim.Plan, i, v int) bool {
	for j, a := range q.Alloc {
		want := cur.Alloc[j]
		if j == i {
			want = v
		}
		if a != want {
			return false
		}
	}
	return true
}

// fairStepDown returns the largest allocation strictly below alloc that is
// a factor or a multiple of trials (so trials always share it evenly), and
// whether one exists. Allocations below 1 GPU do not exist.
func fairStepDown(alloc, trials int) (int, bool) {
	return fairFloor(alloc-1, trials)
}

// fairFloor returns the largest allocation v <= max that divides trials
// evenly (factor or multiple), and whether one exists. When max >= trials
// the answer is the largest multiple of trials not exceeding max (every
// divisor of trials is no larger); below that only divisors of trials
// qualify, and the largest one <= max is found by walking divisor pairs
// up to √trials — O(√trials) instead of the O(max) downward scan this
// replaces.
func fairFloor(max, trials int) (int, bool) {
	if max < 1 {
		return 0, false
	}
	if max >= trials {
		return max - max%trials, true
	}
	best := 1 // 1 divides every trial count and 1 <= max
	for d := 1; d*d <= trials; d++ {
		if trials%d != 0 {
			continue
		}
		if d <= max && d > best {
			best = d
		}
		if q := trials / d; q <= max && q > best {
			best = q
		}
	}
	return best, true
}

// EstimateCalls reports the total number of plan evaluations requested by
// the Planner's searches, counting those the Simulator answered from its
// memo. A static size the enumeration skips on its cost floor is never
// requested, so it is not counted.
func (p *Planner) EstimateCalls() int64 { return p.estCalls } //rbvet:ignore unreached — BenchmarkPlanStatic and BenchmarkPlanElastic report estimates/op through it
