package experiments

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/harness"
	"repro/internal/planner"
)

// fastCfg keeps unit tests quick while exercising the exact experiment
// code paths; the cmd/experiments binary runs the full-size versions.
func fastCfg() Config {
	return Config{Seed: 1, Seeds: 2, Fast: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig4", "fig9", "fig10", "fig11", "fig12",
		"table1", "table2", "table3", "table4", "ablation", "asha", "spot", "fidelity", "instances"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries", len(reg))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
		if reg[i].Description == "" || reg[i].Run == nil {
			t.Errorf("registry[%d] incomplete", i)
		}
	}
	if _, err := Lookup("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment found")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &table{title: "T", header: []string{"a", "bb"}}
	tb.add("x", "y")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "a") || !strings.Contains(out, "x") {
		t.Fatalf("render: %q", out)
	}
	if mmss(125) != "02:05" {
		t.Errorf("mmss = %q", mmss(125))
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, curve := range r.Throughput {
		for i := range curve {
			if curve[i] > float64(r.GPUs[i]) {
				t.Errorf("%s super-linear at %d GPUs: %v", name, r.GPUs[i], curve[i])
			}
			if i > 0 && curve[i] <= curve[i-1] {
				t.Errorf("%s not increasing at %d GPUs", name, r.GPUs[i])
			}
		}
	}
	// BERT scales worst at the largest point (Figure 4's ordering).
	last := len(r.GPUs) - 1
	for name, curve := range r.Throughput {
		if name == "bert" {
			continue
		}
		if r.Throughput["bert"][last] >= curve[last] {
			t.Errorf("bert (%v) should scale worse than %s (%v)",
				r.Throughput["bert"][last], name, curve[last])
		}
	}
	if !strings.Contains(r.String(), "Figure 4") {
		t.Error("missing title")
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"static", "elastic"} {
		pi := r.Cost[policy]["per-instance"]
		pf := r.Cost[policy]["per-function"]
		if len(pi) != len(r.Sigmas) || len(pf) != len(r.Sigmas) {
			t.Fatalf("%s: missing points", policy)
		}
		last := len(r.Sigmas) - 1
		// Stragglers raise per-instance cost...
		if pi[last] <= pi[0] {
			t.Errorf("%s per-instance cost flat under stragglers: %v", policy, pi)
		}
		// ...and per-instance is costlier than per-function at high σ.
		if pi[last] <= pf[last] {
			t.Errorf("%s at σ=max: per-instance %v not above per-function %v",
				policy, pi[last], pf[last])
		}
	}
	// Per-function cost is insensitive to stragglers relative to
	// per-instance: its relative growth must be smaller.
	for _, policy := range []string{"static", "elastic"} {
		pi := r.Cost[policy]["per-instance"]
		pf := r.Cost[policy]["per-function"]
		last := len(r.Sigmas) - 1
		if pf[last]/pf[0] >= pi[last]/pi[0] {
			t.Errorf("%s: per-function growth %v not below per-instance growth %v",
				policy, pf[last]/pf[0], pi[last]/pi[0])
		}
	}
	_ = r.String()
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Prices) - 1
	for _, ds := range []string{"imagenet", "cifar10"} {
		st, el := r.Cost[ds]["static"], r.Cost[ds]["elastic"]
		for i := range r.Prices {
			// The elastic policy never does worse (§6.1.2).
			if el[i] > st[i]*1.02 {
				t.Errorf("%s @$%.2f: elastic %v above static %v", ds, r.Prices[i], el[i], st[i])
			}
		}
		// Costs rise with data price for the large dataset.
		if ds == "imagenet" && st[last] <= st[0] {
			t.Errorf("imagenet static cost flat across data prices: %v", st)
		}
	}
	// The relative elastic advantage shrinks when I/O dominates
	// (ImageNet at the highest price) compared to the free case.
	adv := func(ds string, i int) float64 {
		return (r.Cost[ds]["static"][i] - r.Cost[ds]["elastic"][i]) / r.Cost[ds]["static"][i]
	}
	if adv("imagenet", last) >= adv("imagenet", 0) {
		t.Errorf("imagenet advantage grew with data price: %v vs %v",
			adv("imagenet", last), adv("imagenet", 0))
	}
	_ = r.String()
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, billing := range []string{"per-instance", "per-function"} {
		st, el := r.Cost[billing]["static"], r.Cost[billing]["elastic"]
		for i := range r.Trials {
			if el[i] > st[i]*1.02 {
				t.Errorf("%s n=%d: elastic %v above static %v", billing, r.Trials[i], el[i], st[i])
			}
		}
		// Cost grows with job size.
		last := len(r.Trials) - 1
		if st[last] <= st[0] {
			t.Errorf("%s static cost flat across job sizes: %v", billing, st)
		}
	}
	_ = r.String()
}

func TestFig12Shape(t *testing.T) {
	r, err := Fig12(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for key, byPolicy := range r.Cost {
		st, el := byPolicy["static"], byPolicy["elastic"]
		for i := range r.Deadlines {
			if el[i] > st[i]*1.02 {
				t.Errorf("init=%s deadline=%v: elastic %v above static %v",
					key, r.Deadlines[i], el[i], st[i])
			}
		}
	}
	_ = r.String()
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Placed) != 3 || len(r.Scattered) != 3 {
		t.Fatalf("rows = %d/%d", len(r.Placed), len(r.Scattered))
	}
	// At 1 GPU placement is irrelevant; throughputs should be close.
	if r.Placed[0].Mean <= 0 || r.Scattered[0].Mean <= 0 {
		t.Fatal("zero throughput")
	}
	// With placement, 4-GPU throughput scales ~3.7x; without, ~1.8x
	// (Table 1's headline).
	placedSpeedup := r.Placed[2].Mean / r.Placed[0].Mean
	scatteredSpeedup := r.Scattered[2].Mean / r.Scattered[0].Mean
	if placedSpeedup < 3.0 {
		t.Errorf("placed speedup %v, want >= 3", placedSpeedup)
	}
	if scatteredSpeedup > 2.5 {
		t.Errorf("scattered speedup %v, want <= 2.5", scatteredSpeedup)
	}
	if scatteredSpeedup >= placedSpeedup {
		t.Error("scattering did not hurt scaling")
	}
	_ = r.String()
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]Table2Row{}
	for _, row := range r.Rows {
		byPolicy[row.Policy.String()] = row
	}
	static, rb := byPolicy["Static"], byPolicy["RubberBand"]
	// RubberBand's simulated cost never exceeds static's (§4.3
	// guarantee).
	if rb.CostSim.Mean > static.CostSim.Mean*1.01 {
		t.Errorf("RubberBand sim cost %v above static %v", rb.CostSim.Mean, static.CostSim.Mean)
	}
	// Real execution tracks simulation within 20%.
	for _, row := range []Table2Row{static, rb} {
		if d := abs(row.JCTReal.Mean-row.JCTSim.Mean) / row.JCTSim.Mean; d > 0.2 {
			t.Errorf("%v: JCT sim/real divergence %.0f%%", row.Policy, d*100)
		}
		if d := abs(row.CostReal.Mean-row.CostSim.Mean) / row.CostSim.Mean; d > 0.25 {
			t.Errorf("%v: cost sim/real divergence %.0f%%", row.Policy, d*100)
		}
	}
	out := r.String()
	if !strings.Contains(out, "RubberBand") || !strings.Contains(out, "Static") {
		t.Error("table missing policies")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no schedule rows")
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Trials > r.Rows[i-1].Trials {
			t.Errorf("trials grew at stage %d", i)
		}
		if r.Rows[i].EpochStart != r.Rows[i-1].EpochEnd {
			t.Errorf("epoch ranges not contiguous at stage %d", i)
		}
	}
	_ = r.String()
}

func TestTable4Shape(t *testing.T) {
	r, err := Table4(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// RubberBand never materially worse than fixed (§6.3.2).
		if row.Rubber.Mean > row.Fixed.Mean*1.05 {
			t.Errorf("%s: RubberBand %v above fixed %v", row.Model, row.Rubber.Mean, row.Fixed.Mean)
		}
	}
	_ = r.String()
}

func TestAblationShape(t *testing.T) {
	r, err := Ablation(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]AblationRow{}
	for _, row := range r.Rows {
		byVariant[row.Variant] = row
	}
	// Instance-boundary candidates matter under per-instance billing.
	on, off := byVariant["instance-step=on"], byVariant["instance-step=off"]
	if on.Cost > off.Cost*1.01 {
		t.Errorf("instance-step on (%v) worse than off (%v)", on.Cost, off.Cost)
	}
	// Multi-warm-start never loses to single.
	multi, single := byVariant["warm-start={1,2,3}"], byVariant["warm-start={1}"]
	if multi.Cost > single.Cost*1.01 {
		t.Errorf("multi warm start (%v) worse than single (%v)", multi.Cost, single.Cost)
	}
	_ = r.String()
}

func TestFig9StaticHelper(t *testing.T) {
	res, err := fig9Static(fastCfg(), 4, cloud.PerInstance)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsStatic() {
		t.Errorf("plan %v not static", res.Plan)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestASHAShape(t *testing.T) {
	r, err := ASHA(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	rb, as := r.Rows[0], r.Rows[1]
	// The fixed ASHA cluster never shrinks: under a time constraint it
	// spends at least as much as RubberBand.
	if as.Cost.Mean < rb.Cost.Mean*0.95 {
		t.Errorf("ASHA cost %v below RubberBand %v", as.Cost.Mean, rb.Cost.Mean)
	}
	// ASHA samples far more configurations but trains few to the full
	// budget.
	if as.SampledConfigs <= rb.SampledConfigs {
		t.Errorf("ASHA sampled %v configs, RubberBand %v", as.SampledConfigs, rb.SampledConfigs)
	}
	_ = r.String()
}

func TestSpotShape(t *testing.T) {
	r, err := Spot(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	onDemand, stable := r.Rows[0], r.Rows[1]
	// Stable spot capacity is strictly cheaper than on-demand.
	if stable.Cost.Mean >= onDemand.Cost.Mean {
		t.Errorf("stable spot %v not cheaper than on-demand %v",
			stable.Cost.Mean, onDemand.Cost.Mean)
	}
	// JCT is unaffected when nothing is preempted.
	if stable.Preemptions != 0 && stable.JCT.Mean < onDemand.JCT.Mean {
		t.Errorf("inconsistent stable spot row: %+v", stable)
	}
	_ = r.String()
}

func TestFidelityShape(t *testing.T) {
	r, err := Fidelity(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Workloads < 2 {
		t.Fatalf("workloads = %d", r.Workloads)
	}
	// The whole point of the DAG model: predictions track execution.
	if r.JCTErr.P50 > 0.10 {
		t.Errorf("median JCT error %.1f%% too high", r.JCTErr.P50*100)
	}
	if r.CostErr.P50 > 0.15 {
		t.Errorf("median cost error %.1f%% too high", r.CostErr.P50*100)
	}
	if r.JCTErr.Max > 0.5 || r.CostErr.Max > 0.5 {
		t.Errorf("pathological tail: %+v %+v", r.JCTErr, r.CostErr)
	}
	if r.JCTErr.P50 > r.JCTErr.P90 || r.JCTErr.P90 > r.JCTErr.Max {
		t.Errorf("percentiles not ordered: %+v", r.JCTErr)
	}
	_ = r.String()
	if r.CSV() == "" {
		t.Error("empty CSV")
	}
}

func TestInstancesShape(t *testing.T) {
	r, err := Instances(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(r.Deadlines) {
		t.Fatalf("rows = %d, deadlines = %d", len(r.Rows), len(r.Deadlines))
	}
	for di := range r.Deadlines {
		chosen := 0
		for _, row := range r.Rows[di] {
			if row.Chosen {
				chosen++
				if !row.Feasible {
					t.Errorf("chose infeasible type at deadline %v", r.Deadlines[di])
				}
				// The chosen type is the min-cost feasible one.
				for _, other := range r.Rows[di] {
					if other.Feasible && other.Cost < row.Cost-1e-9 {
						t.Errorf("deadline %v: %s ($%.2f) beats chosen %s ($%.2f)",
							r.Deadlines[di], other.Instance, other.Cost, row.Instance, row.Cost)
					}
				}
			}
		}
		if len(r.Rows[di]) > 0 && chosen != 1 {
			t.Errorf("deadline %v: %d chosen types", r.Deadlines[di], chosen)
		}
	}
	_ = r.String()
}

// fig9Static is a helper for tests: the static result at one sigma.
func fig9Static(cfg Config, sigma float64, billing cloud.BillingModel) (planner.Result, error) {
	w := fig9Workload(cfg)
	w.billing = billing
	w.initLat = 0
	w.model.IterNoiseStd = sigma
	p, err := w.planner()
	if err != nil {
		return planner.Result{}, err
	}
	return p.PlanStatic()
}

// paperScenarios lists every scenario the experiments run through the
// harness under cfg, in the order they run.
func paperScenarios(t *testing.T, cfg Config) []harness.Scenario {
	var out []harness.Scenario
	for _, dl := range table2Deadlines(cfg.Fast) {
		for _, policy := range table2Policies {
			for s := 0; s < cfg.Seeds; s++ {
				out = append(out, table2Scenario(cfg, policy, dl, s))
			}
		}
	}
	for wi, sc := range table4Workloads(cfg) {
		for s := 0; s < cfg.Seeds; s++ {
			sc.BatchSeed = table4Seed(cfg, wi, s)
			for _, policy := range []planner.Policy{planner.PolicyStatic, planner.PolicyRubberBand} {
				sc.Policy = policy
				out = append(out, sc)
			}
		}
	}
	for s := 0; s < cfg.Seeds; s++ {
		out = append(out, ashaScenario(cfg, s))
	}
	for _, pt := range spotPoints(cfg.Fast) {
		for s := 0; s < cfg.Seeds; s++ {
			out = append(out, spotScenario(cfg, pt, s))
		}
	}
	fid, err := fidelityScenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fid...)
}

// TestPaperScenariosPassOracles holds the paper path to the chaos
// harness's standard: every scenario the fast experiments run passes
// every invariant oracle and replays to the same digest.
func TestPaperScenariosPassOracles(t *testing.T) {
	for i, sc := range paperScenarios(t, fastCfg().withDefaults()) {
		a, err := harness.RunScenario(sc)
		if err != nil {
			t.Fatalf("scenario %d (%s %v %v): %v", i, sc.Model.Name, sc.Spec, sc.Policy, err)
		}
		for _, v := range harness.CheckAll(a, harness.DefaultOracles()) {
			t.Errorf("scenario %d (%s %v %v): %s", i, sc.Model.Name, sc.Spec, sc.Policy, v)
		}
		again, err := harness.RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if d, e := harness.ComputeDigest(a), harness.ComputeDigest(again); d != e {
			t.Errorf("scenario %d (%s %v %v): replay digest %016x != %016x", i, sc.Model.Name, sc.Spec, sc.Policy, e, d)
		}
	}
}
