package main

import (
	"math"

	"repro/internal/harness"
)

// passSummary is what one pass of an end-to-end run reports: its timing
// metrics, the sums behind the quality metrics, the digests of its
// slice (batch-replan), and what it attempted and got wrong. The pass's
// records become garbage once it is summarized, so what the run keeps,
// and with it the live heap and the collector's pace, does not grow
// from pass to pass.
type passSummary struct {
	timing                        map[string]float64
	speedFactor, setupSpeedFactor float64
	quality                       qualitySums
	digests                       []harness.Digest
	attempted, failures           int
	problems                      []string
}

// qualitySums accumulates the paper's objective (mean cost), its
// constraint (share of deadlines met) and its Table 2 check (realized
// against predicted cost) over the first run through each pass's slice.
type qualitySums struct {
	n, cost, met float64
	// errN counts the planned runs, whose prediction errPct sums the
	// error of.
	errN, errPct float64
}

func (q *qualitySums) add(r expRec) {
	q.n++
	q.cost += r.cost
	q.met += b2f(r.jct <= r.deadline)
	if r.planned && r.predCost > 0 {
		q.errN++
		q.errPct += 100 * math.Abs(r.cost-r.predCost) / r.predCost
	}
}

func (q *qualitySums) merge(o qualitySums) {
	q.n, q.cost, q.met = q.n+o.n, q.cost+o.cost, q.met+o.met
	q.errN, q.errPct = q.errN+o.errN, q.errPct+o.errPct
}

// metrics divides the sums out; an empty sample gives NaN, which fails
// the run.
func (q qualitySums) metrics() map[string]float64 {
	return map[string]float64{
		"cost_usd_mean":     q.cost / q.n,
		"deadline_met_frac": q.met / q.n,
		"cost_pred_err_pct": q.errPct / q.errN,
	}
}

// runPass runs pass i of an end-to-end run, with its share of the
// correctness gate, and summarizes it: the last serve pass replays
// every completed experiment offline, and every batch-replan pass
// re-runs the head of its slice.
func runPass(w *workload, o opts, i int) passSummary {
	last := i == passes-1
	p := w.pass(w, o, nil, i, last)
	var gate []string
	switch {
	case w.name == "batch-replan":
		gate = batchGate(w, o, p)
	case last:
		gate = verifyTuples(p.tuples)
	}
	s := passSummary{
		timing: timing(p), speedFactor: p.speed.factor(), setupSpeedFactor: p.setupSpeed.factor(),
		digests: p.digests, attempted: p.attempted(), failures: p.failures + len(gate),
	}
	s.problems = append(p.problems, gate...)
	s.problems = s.problems[:min(len(s.problems), maxProblems)]
	for _, r := range p.recs {
		if r.idx < w.slice {
			s.quality.add(r)
		}
	}
	return s
}
