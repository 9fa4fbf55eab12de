package dag

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func det(v float64) stats.Dist { return stats.Deterministic{Value: v} }

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Scale: "SCALE", InitInstance: "INIT_INSTANCE", Train: "TRAIN", Sync: "SYNC",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New()
	_, m := g.Sample(stats.NewRNG(1))
	if m != 0 {
		t.Fatalf("empty makespan %v", m)
	}
}

func TestLinearChain(t *testing.T) {
	g := New()
	a := g.AddNode(Train, 0, 0, 1, det(2))
	b := g.AddNode(Train, 0, 1, 1, det(3), a.ID)
	c := g.AddNode(Sync, 0, -1, 0, det(1), b.ID)
	timings, m := g.Sample(stats.NewRNG(1))
	if m != 6 {
		t.Fatalf("makespan %v, want 6", m)
	}
	if timings[b.ID].Start != 2 || timings[c.ID].Start != 5 {
		t.Fatalf("timings %v", timings)
	}
}

func TestParallelNodes(t *testing.T) {
	g := New()
	a := g.AddNode(Train, 0, 0, 1, det(2))
	b := g.AddNode(Train, 0, 1, 1, det(7))
	sync := g.AddNode(Sync, 0, -1, 0, det(1), a.ID, b.ID)
	timings, m := g.Sample(stats.NewRNG(1))
	if m != 8 {
		t.Fatalf("makespan %v, want 8 (max(2,7)+1)", m)
	}
	if timings[sync.ID].Start != 7 {
		t.Fatalf("sync started at %v, want 7", timings[sync.ID].Start)
	}
}

func TestAddNodePanicsOnForwardDep(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddNode(Train, 0, 0, 1, det(1), 5)
}

func TestNilLatencyDefaultsToZero(t *testing.T) {
	g := New()
	g.AddNode(Sync, 0, -1, 0, nil)
	_, m := g.Sample(stats.NewRNG(1))
	if m != 0 {
		t.Fatalf("makespan %v, want 0", m)
	}
}

func TestStragglerRaisesExpectedMakespan(t *testing.T) {
	// Jensen's inequality in action: the expected max of n noisy trials
	// exceeds the max of expectations — this is why synchronization
	// barriers make stragglers expensive (§3.2).
	makespan := func(sigma float64) float64 {
		g := New()
		var deps []int
		for i := 0; i < 16; i++ {
			n := g.AddNode(Train, 0, i, 1, stats.Normal{Mu: 10, Sigma: sigma})
			deps = append(deps, n.ID)
		}
		g.AddNode(Sync, 0, -1, 0, det(0), deps...)
		const draws = 5000
		r := stats.NewRNG(3)
		var sum float64
		for i := 0; i < draws; i++ {
			_, m := g.Sample(r)
			sum += m
		}
		return sum / draws
	}
	low, high := makespan(0.1), makespan(3)
	if high <= low {
		t.Fatalf("straggler variance did not raise makespan: %v vs %v", low, high)
	}
	if high < 12 {
		t.Fatalf("high-variance makespan %v suspiciously low", high)
	}
}

func TestDepsCopied(t *testing.T) {
	g := New()
	a := g.AddNode(Train, 0, 0, 1, det(1))
	b := g.AddNode(Sync, 0, -1, 0, det(1), a.ID)
	d := b.Deps()
	d[0] = 99
	if b.Deps()[0] != a.ID {
		t.Fatal("Deps exposed internal slice")
	}
}

// Property: makespan equals the max finish over all nodes, every node
// starts no earlier than all of its dependencies finish, and adding a node
// never decreases the makespan.
func TestQuickScheduleConsistency(t *testing.T) {
	f := func(seed uint64, latsRaw []uint8) bool {
		if len(latsRaw) == 0 || len(latsRaw) > 40 {
			return true
		}
		g := New()
		r := stats.NewRNG(seed)
		depRng := stats.NewRNG(seed + 1)
		for i, lat := range latsRaw {
			var deps []int
			// Random subset of earlier nodes as dependencies.
			for d := 0; d < i; d++ {
				if depRng.Float64() < 0.3 {
					deps = append(deps, d)
				}
			}
			g.AddNode(Train, 0, i, 1, det(float64(lat)), deps...)
		}
		timings, m := g.Sample(r)
		maxFinish := 0.0
		for i, n := range g.Nodes() {
			if timings[i].Finish > maxFinish {
				maxFinish = timings[i].Finish
			}
			for _, d := range n.Deps() {
				if timings[i].Start < timings[d].Finish-1e-12 {
					return false
				}
			}
		}
		return math.Abs(m-maxFinish) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
