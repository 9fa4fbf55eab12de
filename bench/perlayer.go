package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// perLayerMetrics lists the -trace 1 metrics. A metric a workload never
// reaches reads 0 there (journal.* off serve-fleet, replan.* off
// batch-replan, serve.*, mem.* and arbiter.* on batch-replan).
var perLayerMetrics = []metricDef{
	{"serve.submit_handler_us_p50", "us"},
	{"serve.status_handler_us_p50", "us"},
	{"serve.client_overhead_us_p50", "us"},
	{"serve.requests_per_exp", "count"},
	{"serve.resp_kb_per_exp", "KB"},
	{"serve.queue_wait_ms_mean", "ms"},
	{"serve.run_ms_mean", "ms"},
	{"serve.status_p50_ms", "ms"},
	{"serve.status_p95_ms", "ms"},
	{"mem.retained_kb_per_exp", "KB"},
	{"arbiter.grants_per_exp", "count"},
	{"arbiter.grant_ratio", "ratio"},
	{"arbiter.squeezed_frac", "ratio"},
	{"harness.build_us", "us"},
	{"harness.start_us", "us"},
	{"harness.finish_us", "us"},
	{"harness.digest_us", "us"},
	{"planner.plan_ms_p50", "ms"},
	{"planner.plan_ms_p95", "ms"},
	{"planner.planned_frac", "ratio"},
	{"sim.new_us", "us"},
	{"sim.estimate_us", "us"},
	{"replan.decisions_per_exp", "count"},
	{"replan.adopted_frac", "ratio"},
	{"replan.ms_per_exp", "ms"},
	{"executor.exec_ms_p50", "ms"},
	{"vclock.events_per_exp", "count"},
	{"vclock.ns_per_event", "ns"},
	{"journal.records_per_exp", "count"},
	{"journal.appends_per_exp", "count"},
	{"journal.kb_per_exp", "KB"},
	{"journal.snapshots_per_exp", "count"},
	{"journal.encode_us_per_exp", "us"},
	{"journal.write_us_per_exp", "us"},
	{"trace.residual_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// perLayer runs tracePasses untraced passes, tracePasses traced ones, and
// the offline breakdown of breakdownN experiments of the last traced
// pass, and derives every per-layer metric from them.
func perLayer(w *workload, o opts) (result, *tracer) {
	tr := newTracer()
	var plain, traced []*passOut
	for i := 0; i < tracePasses; i++ {
		plain = append(plain, w.pass(w, o, nil, i, false))
	}
	for i := 0; i < tracePasses; i++ {
		traced = append(traced, w.pass(w, o, tr, tracePasses+i, i == tracePasses-1))
	}
	attempted, failures, problems := tally(append(plain, traced...)...)

	bd, fBd, bdProblems := breakdown(w, o, tr, traced[len(traced)-1])
	problems = append(problems, bdProblems...)
	failures += len(bdProblems)
	attempted += len(bd)

	v := map[string]float64{}
	passMedian := func(ps []*passOut, f func(p *passOut) float64) float64 {
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = f(p)
		}
		return median(vals)
	}
	factor := func(ps []*passOut) float64 {
		return passMedian(ps, func(p *passOut) float64 { return p.speed.factor() })
	}
	plainMetrics := func(name string) float64 {
		return passMedian(plain, func(p *passOut) float64 { return timing(p)[name] })
	}
	plainRate := plainMetrics("exps_per_s")
	v["trace.overhead_pct"] = 100 * (plainRate - passMedian(traced, func(p *passOut) float64 {
		return timing(p)["exps_per_s"]
	})) / plainRate

	// Offline breakdown, per experiment.
	var build, start, finish, digest, simNew, estimate, plan, exec, replanMs, encode, write []float64
	planned, steps, decisions, adopts, records, appends, snaps, kb := 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
	execNs := 0.0
	for _, l := range bd {
		build = append(build, us(l.build))
		simNew = append(simNew, us(l.simNew))
		plan = append(plan, ms(l.plan))
		estimate = append(estimate, us(l.estimate))
		start = append(start, us(l.start))
		exec = append(exec, ms(l.exec))
		finish = append(finish, us(l.finish))
		digest = append(digest, us(l.digest))
		planned += b2f(l.planned)
		steps += float64(l.steps)
		execNs += float64(l.exec)
		decisions += float64(l.decisions)
		adopts += float64(l.adopts)
		if l.replanOff > 0 {
			replanMs = append(replanMs, ms(l.run()-l.replanOff))
		} else {
			replanMs = append(replanMs, 0)
		}
		if l.fileRun > 0 {
			encode = append(encode, us(l.memRun-l.run()))
			write = append(write, us(l.fileRun-l.memRun))
			records += float64(l.records)
			appends += float64(l.appends)
			snaps += float64(l.snapshots)
			kb += float64(l.journalBytes) / 1024
		}
	}
	n := float64(len(bd))
	v["harness.build_us"], v["harness.start_us"] = mean(build), mean(start)
	v["harness.finish_us"], v["harness.digest_us"] = mean(finish), mean(digest)
	v["sim.new_us"], v["sim.estimate_us"] = mean(simNew), mean(estimate)
	v["planner.plan_ms_p50"], v["planner.plan_ms_p95"] = quantile(plan, 0.5), quantile(plan, 0.95)
	v["planner.planned_frac"] = planned / n
	v["executor.exec_ms_p50"] = quantile(exec, 0.5)
	v["vclock.events_per_exp"] = steps / n
	v["vclock.ns_per_event"] = execNs / steps
	v["replan.decisions_per_exp"] = decisions / n
	if decisions > 0 {
		v["replan.adopted_frac"] = adopts / decisions
	}
	v["replan.ms_per_exp"] = mean(replanMs)
	if len(encode) > 0 {
		v["journal.records_per_exp"], v["journal.appends_per_exp"] = records/n, appends/n
		v["journal.snapshots_per_exp"], v["journal.kb_per_exp"] = snaps/n, kb/n
		v["journal.encode_us_per_exp"], v["journal.write_us_per_exp"] = mean(encode), mean(write)
	}
	// Every time reads at nominal reference speed, scaled by the speed of
	// the phase that measured it.
	scale := func(f float64, names ...string) {
		for _, n := range names {
			v[n] /= f
		}
	}
	scale(fBd, "harness.build_us", "harness.start_us", "harness.finish_us", "harness.digest_us",
		"sim.new_us", "sim.estimate_us", "planner.plan_ms_p50", "planner.plan_ms_p95", "replan.ms_per_exp",
		"executor.exec_ms_p50", "vclock.ns_per_event", "journal.encode_us_per_exp", "journal.write_us_per_exp")
	// Layer self time per experiment, set against the service time per
	// experiment: for batch-replan the breakdown's layers against the
	// untraced loop's wall time, for the serve workloads the spans of the
	// traced passes against those passes' wall time. The journal is left
	// out: the timed passes do not journal.
	self := (mean(build) + mean(start) + mean(exec)*1e3 + mean(finish) + mean(digest)) / 1e3 / fBd
	service := 1e3 / plainRate
	if w.name != "batch-replan" {
		self, service = serveLayers(tr, traced, v)
		scale(factor(traced), "serve.submit_handler_us_p50", "serve.status_handler_us_p50", "serve.client_overhead_us_p50")
		// The status stamps are cut to whole ms, so a single difference is
		// off by up to 1 ms; their mean is not.
		v["serve.queue_wait_ms_mean"] = passMedian(plain, func(p *passOut) float64 { return mean(field(p, func(r expRec) float64 { return r.queueMs })) })
		v["serve.run_ms_mean"] = passMedian(plain, func(p *passOut) float64 { return mean(field(p, func(r expRec) float64 { return r.runMs })) })
		v["serve.status_p50_ms"] = passMedian(plain, func(p *passOut) float64 { return quantile(p.statusMs, 0.5) })
		v["serve.status_p95_ms"] = passMedian(plain, func(p *passOut) float64 { return quantile(p.statusMs, 0.95) })
		scale(factor(plain), "serve.queue_wait_ms_mean", "serve.run_ms_mean", "serve.status_p50_ms", "serve.status_p95_ms")
		v["mem.retained_kb_per_exp"] = passMedian(plain, func(p *passOut) float64 {
			return (float64(p.use1.heapAlloc) - float64(p.heapGone)) / 1024 / float64(len(p.recs))
		})
		arbiterLayers(traced[len(traced)-1], v)
	}
	v["trace.residual_pct"] = 100 * (service - self) / service

	return newResult(perLayerMetrics, v, attempted, failures, problems), tr
}

// breakdown re-runs up to breakdownN experiments of pass p call by call:
// the served ones from their replay tuples, batch-replan's from the
// corpus. It also returns the machine's speed factor meanwhile.
func breakdown(w *workload, o opts, tr *tracer, p *passOut) ([]layers, float64, []string) {
	var out []layers
	var problems []string
	var sp speed
	if w.name == "batch-replan" {
		for idx, it := range corpus(w.name, o.seed, p.slice, w.slice)[:min(breakdownN, w.slice)] {
			sp.probe()
			l, err := breakdownOne(tr, fmt.Sprint(idx), it, nil, "")
			if err != nil {
				problems = append(problems, fmt.Sprintf("breakdown item %d: %v", idx, err))
				continue
			}
			out = append(out, l)
		}
		return out, sp.factor(), problems
	}
	for i := range p.tuples[:min(breakdownN, len(p.tuples))] {
		sp.probe()
		tup := &p.tuples[i]
		dir := ""
		if w.name == "serve-fleet" {
			dir = filepath.Join(o.dataRoot, "breakdown")
		}
		l, err := breakdownOne(tr, tup.ID, item{Sub: tup.Submission}, tup, dir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("breakdown %s: %v", tup.ID, err))
			continue
		}
		out = append(out, l)
	}
	return out, sp.factor(), problems
}

// serveLayers fills the serve.* span metrics of the traced passes and
// returns, per experiment, the spans' self time and the wall time from
// the first span to the last. The loop is serial on one P, so every
// call's handler, and the driver goroutine the submit handler starts,
// run inside a client span: the self times sum to the client spans'
// durations, and what they leave out is the loop's own work. For the
// same reason a submit's client overhead includes that goroutine, so
// client overhead covers the other calls.
func serveLayers(tr *tracer, traced []*passOut, v map[string]float64) (selfMs, wallMs float64) {
	var submit, status, overhead []float64
	exps, requests, bytes := 0, 0, int64(0)
	var self, wall time.Duration
	for _, p := range traced {
		exps += len(p.recs)
		requests += p.requests
		bytes += p.respBytes
		window := tr.spans[p.spanLo:p.spanHi]
		if len(window) == 0 {
			continue
		}
		server := map[int64]span{}
		first, last := window[0].Start, window[0].End
		for _, s := range window {
			switch s.Name {
			case "serve.submit":
				submit = append(submit, us(s.dur()))
			case "serve.status":
				status = append(status, us(s.dur()))
			}
			if strings.HasPrefix(s.Name, "serve.") {
				server[s.Parent] = s
			}
			first, last = min(first, s.Start), max(last, s.End)
		}
		wall += time.Duration(last - first)
		for _, c := range window {
			if s, ok := server[c.ID]; ok && c.Name != "client.submit" {
				overhead = append(overhead, us(c.dur()-s.dur()))
			}
		}
		for _, d := range selfTime(window) {
			self += d
		}
	}
	v["serve.submit_handler_us_p50"] = quantile(submit, 0.5)
	v["serve.status_handler_us_p50"] = quantile(status, 0.5)
	v["serve.client_overhead_us_p50"] = quantile(overhead, 0.5)
	v["serve.requests_per_exp"] = float64(requests) / float64(exps)
	v["serve.resp_kb_per_exp"] = float64(bytes) / 1024 / float64(exps)
	return ms(self) / float64(exps), ms(wall) / float64(exps)
}

// arbiterLayers fills the arbiter.* metrics from a pass's replay tuples.
func arbiterLayers(p *passOut, v map[string]float64) {
	grants, squeezed, want, granted := 0, 0, 0, 0
	for _, t := range p.tuples {
		for _, g := range t.Grants {
			grants++
			want += g.Want
			granted += g.Granted
			if g.Granted < g.Want {
				squeezed++
			}
		}
	}
	if grants == 0 {
		return
	}
	v["arbiter.grants_per_exp"] = float64(grants) / float64(len(p.tuples))
	v["arbiter.grant_ratio"] = float64(granted) / float64(want)
	v["arbiter.squeezed_frac"] = float64(squeezed) / float64(grants)
}

// field collects one per-experiment value over a pass.
func field(p *passOut, f func(r expRec) float64) []float64 {
	out := make([]float64, len(p.recs))
	for i, r := range p.recs {
		out[i] = f(r)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
