package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestCorpusIsAPureFunctionOfTheSeed: the same seed yields byte-identical
// submissions, another seed different ones, and each block of a corpus
// balances its discrete dimensions.
func TestCorpusIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := json.Marshal(corpus(w.name, 42, 0, 2*block+7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(corpus(w.name, 42, 0, 2*block+7))
		c, _ := json.Marshal(corpus(w.name, 43, 0, 2*block+7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different corpus", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same corpus", w.name)
		}
		perModel := map[string]int{}
		for _, it := range corpus(w.name, 42, 1, block) {
			perModel[it.Sub.Model]++
			if err := it.Sub.Validate(); err != nil {
				t.Fatalf("%s: invalid submission %+v: %v", w.name, it.Sub, err)
			}
		}
		for _, m := range models {
			if perModel[m] != block/len(models) {
				t.Errorf("%s: model %s appears %d times in a block, want %d", w.name, m, perModel[m], block/len(models))
			}
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{3, 1, 2}, 0, 1},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{10, 20}, 0.95, 19.5},
		{[]float64{7}, 0.95, 7},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(mean(nil)) {
		t.Error("empty samples should give NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("quantile reordered its input")
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs each workload at about 20 experiments per
// pass, end to end and traced, and requires every metric BENCHMARK.json
// names, with its unit, and no failure.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, res result, want []struct{ Name, Unit string }) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			}
		}
	}
	for _, w := range workloads {
		small := *w
		small.warmup, small.slice = 4, 20
		t.Run(w.name, func(t *testing.T) {
			o := opts{seed: 7, window: 30 * time.Millisecond, dataRoot: t.TempDir()}
			check(t, endToEnd(&small, o), bf.EndToEnd)
			res, tr := perLayer(&small, o)
			check(t, res, bf.PerLayer)
			if len(tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
