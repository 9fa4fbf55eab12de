package harness

import (
	"errors"
	"testing"

	"repro/internal/journal"
)

// findCapScenario returns a generated scenario carrying arbiter caps.
func findCapScenario(t *testing.T, seed uint64) Scenario {
	t.Helper()
	for i := 0; i < 64; i++ {
		if sc := Generate(seed, i); len(sc.ArbiterCaps) > 0 {
			return sc
		}
	}
	t.Fatal("no cap-carrying scenario in 64 draws")
	return Scenario{}
}

// TestArbitratedReplayBitIdentical: replaying a gated run's recorded
// grant sequence through a scripted gate reproduces the digest bit for
// bit — the offline half of the serve replay tuple contract.
func TestArbitratedReplayBitIdentical(t *testing.T) {
	sc := findCapScenario(t, 101)
	a, err := RunScenario(sc) // caps applied implicitly
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Grants) != sc.Spec.NumStages() {
		t.Fatalf("%d grants for %d stages", len(a.Grants), sc.Spec.NumStages())
	}
	want := ComputeDigest(a)

	// Re-run with the recorded sequence scripted through an explicit
	// gate (the caps must not be consulted: Gate overrides them).
	grants := a.Grants
	i := 0
	replayed, err := Run(sc, RunConfig{Gate: func(req GrantRequest) int {
		g := grants[i].Granted
		i++
		return g
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ComputeDigest(replayed); got != want {
		t.Fatalf("replay digest %016x != original %016x", uint64(got), uint64(want))
	}
	if i != len(grants) {
		t.Fatalf("replay consumed %d grants, recorded %d", i, len(grants))
	}
}

// TestArbitratedDigestDiffersFromUngated: the grant sequence is part of
// the run's identity — squeezing a stage must change the digest.
func TestArbitratedDigestDiffersFromUngated(t *testing.T) {
	sc := findCapScenario(t, 102)
	sc.ArbiterCaps = nil // ungated baseline
	base, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	squeezed, err := Run(sc, RunConfig{Gate: func(req GrantRequest) int { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if ComputeDigest(base) == ComputeDigest(squeezed) {
		t.Fatal("squeezing every stage to 1 GPU left the digest unchanged")
	}
	// And the gated run must still finish every stage.
	if squeezed.Result == nil || squeezed.Result.JCT <= 0 {
		t.Fatal("gated run did not complete")
	}
}

// TestArbitratedRejectsReplan: a gate plus the replan controller is a
// configuration error (both rewrite the live plan).
func TestArbitratedRejectsReplan(t *testing.T) {
	sc := Generate(103, 0)
	sc.ReplanEnabled = true
	sc.ArbiterCaps = nil
	if _, err := Run(sc, RunConfig{Gate: func(req GrantRequest) int { return req.Want }}); err == nil {
		t.Fatal("gate + replan accepted")
	}
}

// TestRunningStepwiseMatchesRunScenario: driving a Running by hand is
// the same run as RunScenario — same digest, same artifacts.
func TestRunningStepwiseMatchesRunScenario(t *testing.T) {
	sc := Generate(104, 3)
	want, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := StartScenario(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadline() != want.Deadline {
		t.Fatalf("Deadline %v != %v", r.Deadline(), want.Deadline)
	}
	steps := 0
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
		if now := r.Now(); now < 0 {
			t.Fatalf("Now = %v", now)
		}
	}
	got, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if steps != got.Steps || steps != want.Steps {
		t.Fatalf("steps %d / artifacts %d / want %d", steps, got.Steps, want.Steps)
	}
	if ComputeDigest(got) != ComputeDigest(want) {
		t.Fatal("stepwise digest differs from RunScenario")
	}
	// Finish is idempotent.
	again, err := r.Finish()
	if err != nil || again != got {
		t.Fatalf("second Finish: %v, %p vs %p", err, again, got)
	}
}

// TestGatedJournalRecordsGrants: a journaled gated run writes one Grant
// record per stage, and they decode back to the artifact's sequence.
func TestGatedJournalRecordsGrants(t *testing.T) {
	sc := findCapScenario(t, 105)
	b := journal.NewMemBackend()
	w := journal.NewWriter(b, 16)
	r, err := StartScenario(sc, RunConfig{Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	var got []GrantDecision
	for _, payload := range raw.Writes {
		rec, err := journal.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := rec.(*journal.Grant); ok {
			got = append(got, GrantDecision{
				Stage: int(g.Stage), Want: int(g.Want), Granted: int(g.Granted), At: g.At,
			})
		}
	}
	if len(got) != len(a.Grants) {
		t.Fatalf("journal holds %d grants, artifacts %d", len(got), len(a.Grants))
	}
	for i := range got {
		if got[i] != a.Grants[i] {
			t.Fatalf("grant %d: journal %+v != artifacts %+v", i, got[i], a.Grants[i])
		}
	}
}

// TestGatedCrashRecovery: kill a journaled gated run mid-flight, resume
// with the journaled grant prefix scripted and a live gate beyond it —
// the recovered digest must equal the uninterrupted run's. This is the
// per-tenant recovery path the serve control plane uses across process
// generations.
func TestGatedCrashRecovery(t *testing.T) {
	sc := findCapScenario(t, 106)
	gateFor := func(caps []int) GrantFn {
		return func(req GrantRequest) int {
			if req.Stage < len(caps) && caps[req.Stage] < req.Want {
				return caps[req.Stage]
			}
			return req.Want
		}
	}

	// Uninterrupted journaled reference.
	base := journal.NewMemBackend()
	wb := journal.NewWriter(base, 8)
	ref, err := Run(sc, RunConfig{Journal: wb, Gate: gateFor(sc.ArbiterCaps)})
	if err != nil {
		t.Fatal(err)
	}
	want := ComputeDigest(ref)
	total := wb.Seq()

	for _, frac := range []float64{0.25, 0.6, 0.95} {
		seq := 1 + uint64(frac*float64(total-1))
		if seq >= total {
			seq = total - 1
		}
		crashed := journal.NewMemBackend()
		wc := journal.NewWriter(crashed, 8)
		wc.SetCrashPoint(seq, 0)
		if _, err := Run(sc, RunConfig{Journal: wc, Gate: gateFor(sc.ArbiterCaps)}); !errors.Is(err, journal.ErrCrash) {
			t.Fatalf("crash at %d: err = %v", seq, err)
		}

		// Prescan the crashed journal's grant prefix, then resume: the
		// scripted prefix replays, later stages consult the "live" gate.
		raw, err := crashed.Load()
		if err != nil {
			t.Fatal(err)
		}
		var prefix []GrantDecision
		for _, payload := range raw.Writes {
			rec, err := journal.DecodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			if g, ok := rec.(*journal.Grant); ok {
				prefix = append(prefix, GrantDecision{
					Stage: int(g.Stage), Want: int(g.Want), Granted: int(g.Granted), At: g.At,
				})
			}
		}
		w2, hdr, damage, err := journal.Resume(crashed, 8)
		if err != nil {
			t.Fatal(err)
		}
		if damage != "" {
			t.Fatalf("clean kill reported damage %q", damage)
		}
		if hdr == nil || hdr.BatchSeed != sc.BatchSeed {
			t.Fatalf("resumed header %+v", hdr)
		}
		i := 0
		live := gateFor(sc.ArbiterCaps)
		rec, err := Run(sc, RunConfig{Journal: w2, Gate: func(req GrantRequest) int {
			if i < len(prefix) {
				g := prefix[i].Granted
				i++
				return g
			}
			return live(req)
		}})
		if err != nil {
			t.Fatalf("recovery after crash at %d: %v", seq, err)
		}
		if got := ComputeDigest(rec); got != want {
			t.Fatalf("crash at %d: recovered digest %016x != %016x", seq, uint64(got), uint64(want))
		}
		if diff, err := journal.Diff(base, crashed); err != nil || diff != "" {
			t.Fatalf("crash at %d: journal diff %q, err %v", seq, diff, err)
		}
	}
}
