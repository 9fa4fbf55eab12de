package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/harness"
)

// batchPass runs one batch-replan pass: setup (corpus and warm-up), then
// serial RunScenario calls on this goroutine for the window. The digest
// of the first run through the slice is kept for the gate and the corpus
// digest.
func batchPass(w *workload, o opts, tr *tracer, slice int, _ bool) *passOut {
	runtime.GC()
	out := &passOut{slice: slice, digests: make([]harness.Digest, w.slice)}
	out.setupSpeed.sample()
	t0 := time.Now()
	items := corpus(w.name, o.seed, slice, w.slice)
	for _, it := range corpus(w.name, warmSeed, 0, w.warmup) {
		if _, err := runItem(it); err != nil {
			out.failf("warm-up: %v", err)
		}
	}
	out.setup = time.Since(t0)
	out.setupSpeed.sample()

	out.use0 = readUsage()
	if tr != nil {
		out.spanLo = len(tr.spans)
	}
	out.start = time.Now()
	out.end = out.start.Add(o.window)
	for idx := 0; time.Now().Before(out.end) || idx < len(items); idx++ {
		out.speed.probe()
		sc, err := scenario(items[idx%len(items)])
		if err != nil {
			out.failf("item %d: %v", idx, err)
			continue
		}
		var a *harness.Artifacts
		lat := tr.timed("harness.run_scenario", fmt.Sprint(idx), 0, func() { a, err = harness.RunScenario(sc) })
		if err != nil {
			out.failf("item %d: %v", idx, err)
			continue
		}
		if idx < len(items) {
			out.digests[idx] = harness.ComputeDigest(a)
		}
		out.recs = append(out.recs, artifactRec(idx, a, lat))
	}
	out.end = time.Now()
	out.use1 = readUsage()
	if tr != nil {
		out.spanHi = len(tr.spans)
	}
	return out
}

// runItem builds and runs one item's scenario.
func runItem(it item) (*harness.Artifacts, error) {
	sc, err := scenario(it)
	if err != nil {
		return nil, err
	}
	return harness.RunScenario(sc)
}

// artifactRec builds an experiment record from a run's artifacts.
func artifactRec(idx int, a *harness.Artifacts, lat time.Duration) expRec {
	r := expRec{
		idx: idx, latMs: float64(lat) / 1e6, end: time.Now(),
		cost: a.Result.Cost, jct: a.Result.JCT, deadline: a.Deadline, planned: a.Planned,
	}
	if a.Planned {
		r.predCost = a.Estimate.Cost
	}
	return r
}

// gateN is how many items of each pass's slice the batch gate re-runs.
const gateN = 80

// batchGate checks a batch-replan pass's outputs, untimed: re-running
// the first gateN items of its slice reproduces each timed run's digest,
// with every harness oracle clean.
func batchGate(w *workload, o opts, p *passOut) []string {
	var problems []string
	for idx, it := range corpus(w.name, o.seed, p.slice, w.slice)[:min(gateN, w.slice)] {
		a, err := runItem(it)
		if err != nil {
			problems = append(problems, fmt.Sprintf("gate slice %d item %d: %v", p.slice, idx, err))
			continue
		}
		if d := harness.ComputeDigest(a); d != p.digests[idx] {
			problems = append(problems, fmt.Sprintf("gate slice %d item %d: digest %016x, timed run had %016x",
				p.slice, idx, uint64(d), uint64(p.digests[idx])))
		}
		for _, v := range harness.CheckAll(a, harness.DefaultOracles()) {
			problems = append(problems, fmt.Sprintf("gate slice %d item %d: %v", p.slice, idx, v))
		}
	}
	return problems
}
