// Command bench is the repository's end-to-end benchmark: it runs one
// workload in-process through the public entry points (serve.NewServer
// behind httptest, harness.RunScenario), checks that every output is
// correct, and prints each metric by name and unit. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 they are the per-layer ones, measured by timing the calls
// into each layer from the benchmark's own code.
//
// Usage (from the repository root; bench/run.sh builds first):
//
//	bench -workload serve-fleet|serve-edge|batch-replan [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// warmup items run before each pass's window, as part of setup.
	warmup int
	// slice is the number of items in each pass's corpus slice, a
	// multiple of block. A pass runs its whole slice at least once, then
	// cycles through it until the window closes; the quality metrics
	// cover the first run through every pass's slice.
	slice int
	// reads is the number of status reads after each served experiment.
	reads int
	// pass runs one pass on corpus slice slice; keep asks a serve pass
	// for the replay tuples of its completed experiments.
	pass func(w *workload, o opts, tr *tracer, slice int, keep bool) *passOut
}

var workloads = []*workload{
	{name: "serve-fleet", warmup: 60, slice: 240, reads: 1, pass: servePass},
	{name: "serve-edge", warmup: 200, slice: 480, reads: 4, pass: servePass},
	{name: "batch-replan", warmup: 50, slice: 240, pass: batchPass},
}

const (
	// passes is the number of passes an end-to-end run reports the
	// median of; a single pass varies by about ±10 %.
	passes = 12
	// tracePasses is the number of untraced and of traced passes in a
	// -trace 1 run.
	tracePasses = 2
	// breakdownN is the number of completed experiments the traced run
	// re-runs call by call.
	breakdownN = 100
)

// opts are the run-wide settings.
type opts struct {
	seed uint64
	// window is each pass's timed phase.
	window time.Duration
	// dataRoot holds the traced run's file journal.
	dataRoot string
}

// expRec is one completed experiment of a timed window.
type expRec struct {
	idx   int
	id    string
	latMs float64
	// end is when the experiment completed; the window counts it when
	// end falls inside.
	end                           time.Time
	cost, predCost, jct, deadline float64
	planned                       bool
	queueMs, runMs                float64
}

// passOut is what one pass measured.
type passOut struct {
	setup      time.Duration
	start, end time.Time
	recs       []expRec
	statusMs   []float64
	use0, use1 usage
	// heapGone is the live heap after a serve pass, its server gone.
	heapGone uint64
	// speed samples the reference through the window, setupSpeed just
	// before and just after the setup.
	speed, setupSpeed speed
	requests          int
	respBytes         int64
	// slice is the corpus slice the pass ran.
	slice int
	// spanLo and spanHi delimit the window's spans in a traced pass.
	spanLo, spanHi int
	tuples         []serve.ReplayTuple
	digests        []harness.Digest
	failures       int
	problems       []string
}

// maxProblems bounds the failure messages a pass keeps; all are counted.
const maxProblems = 20

func (p *passOut) failf(format string, args ...any) {
	p.failures++
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *passOut) abort(err error) *passOut {
	p.failf("%v", err)
	return p
}

func (p *passOut) attempted() int { return len(p.recs) + p.failures }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "serve-fleet, serve-edge or batch-replan")
	seed := flag.Uint64("seed", 1, "corpus seed")
	seconds := flag.Float64("seconds", 24, "measured seconds, split evenly over the passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "with -trace 1, write every span to this file as JSON lines")
	flag.Parse()
	w := workloadNamed(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One P: a second one let goroutines hand work across the machine's
	// two vCPUs, and the cost of those wake-ups drifted from run to run
	// (serve-fleet exps_per_s spread 9 % across runs at two Ps, 2 % at one).
	runtime.GOMAXPROCS(1)
	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second) / passes)}
	var res result
	if *trace == 0 {
		res = endToEnd(w, o)
	} else {
		o.window = time.Duration(*seconds * float64(time.Second) / (2 * tracePasses))
		res = traceRun(w, o, *spans)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// traceRun runs perLayer with a data root for the breakdown's file
// journal under the working directory, which is the checkout the
// benchmark runs in, and writes the spans to spansFile when it is set.
func traceRun(w *workload, o opts, spansFile string) result {
	fail := func(err error) result {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return result{Attempted: 1, Failed: 1}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp(".bench_build", "data-")
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := os.RemoveAll(root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}()
	o.dataRoot = root
	res, tr := perLayer(w, o)
	if spansFile != "" {
		if err := tr.write(spansFile); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			res.Correct = false
			res.Failed++
		}
	}
	return res
}

// newResult builds the printed result from one value per metric. A
// value that is not finite means the run measured nothing there: it
// reads 0 and fails the run.
func newResult(defs []metricDef, v map[string]float64, attempted, failures int, problems []string) result {
	res := result{Metrics: map[string]metric{}}
	for _, m := range defs {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", m.name, x))
			failures++
			x = 0
		}
		res.Metrics[m.name] = metric{Value: x, Unit: m.unit}
	}
	for i, p := range problems {
		if i == maxProblems {
			fmt.Fprintf(os.Stderr, "... and %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	res.Attempted = max(1, attempted)
	res.Failed = failures
	res.Correct = failures == 0
	fmt.Printf("error_frac %g (%d of %d)\n", float64(failures)/float64(res.Attempted), failures, res.Attempted)
	return res
}

// workloadNamed returns the workload called name, or nil.
func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// endToEnd runs the untraced passes one at a time and reports the
// median over passes of every timing metric and the quality metrics
// over all of them.
func endToEnd(w *workload, o opts) result {
	var perPass []map[string]float64
	var q qualitySums
	var digests []harness.Digest
	attempted, failures := 0, 0
	var problems []string
	for i := 0; i < passes; i++ {
		s := runPass(w, o, i)
		// Each pass's values and the speed factors they were scaled by, so
		// a reader can undo the scaling.
		if b, err := json.Marshal(s.timing); err == nil {
			fmt.Fprintf(os.Stderr, "pass %d speed_factor %.4f setup_speed_factor %.4f %s\n", i, s.speedFactor, s.setupSpeedFactor, b)
		}
		attempted, failures = attempted+s.attempted, failures+s.failures
		problems = append(problems, s.problems...)
		perPass = append(perPass, s.timing)
		q.merge(s.quality)
		digests = append(digests, s.digests...)
	}
	if w.name == "batch-replan" {
		fmt.Printf("corpus_digest %016x\n", uint64(harness.CombineDigests(digests)))
	}
	v := q.metrics()
	for _, m := range endToEndMetrics {
		if _, ok := v[m.name]; ok {
			continue
		}
		vals := make([]float64, 0, len(perPass))
		for _, t := range perPass {
			vals = append(vals, t[m.name])
		}
		v[m.name] = median(vals)
	}
	return newResult(endToEndMetrics, v, attempted, failures, problems)
}

// tally sums the passes' attempts, failures and failure messages.
func tally(ps ...*passOut) (attempted, failures int, problems []string) {
	for _, p := range ps {
		attempted += p.attempted()
		failures += p.failures
		problems = append(problems, p.problems...)
	}
	return attempted, failures, problems
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics lists the -trace 0 metrics.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"exps_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_exp", "ms"},
	{"alloc_kb_per_exp", "KB"},
	{"cost_usd_mean", "usd"},
	{"deadline_met_frac", "ratio"},
	{"cost_pred_err_pct", "%"},
}

// timing computes one pass's timing metrics at nominal reference speed.
func timing(p *passOut) map[string]float64 {
	f := p.speed.factor()
	n := float64(len(p.recs))
	lat := make([]float64, 0, len(p.recs))
	inWindow := 0
	for _, r := range p.recs {
		lat = append(lat, r.latMs)
		if !r.end.After(p.end) {
			inWindow++
		}
	}
	return map[string]float64{
		"setup_s":          p.setup.Seconds() / p.setupSpeed.factor(),
		"exps_per_s":       float64(inWindow) / p.end.Sub(p.start).Seconds() * f,
		"latency_p50_ms":   quantile(lat, 0.5) / f,
		"latency_p95_ms":   quantile(lat, 0.95) / f,
		"cpu_ms_per_exp":   float64(p.use1.cpu-p.use0.cpu) / 1e6 / n / f,
		"alloc_kb_per_exp": float64(p.use1.totalAlloc-p.use0.totalAlloc) / 1024 / n,
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
