package harness

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/journal"
	"repro/internal/replan"
	"repro/internal/stats"
	"repro/internal/trace"
)

// outcome is everything a run decides that a recycled working set could
// disturb: its digest, its rendered event log (notes included), its
// oracle verdicts and its journal, snapshots included.
type outcome struct {
	digest     Digest
	notes      string
	violations []string
	journal    [][]byte
	snapshots  map[uint64][]byte
}

// equal reports whether two outcomes match in every part.
func (o outcome) equal(p outcome) bool {
	return o.digest == p.digest && o.notes == p.notes &&
		slices.Equal(o.violations, p.violations) && slices.EqualFunc(o.journal, p.journal, bytes.Equal) &&
		maps.EqualFunc(o.snapshots, p.snapshots, bytes.Equal)
}

// driveOn runs sc to completion on ws, journaling it with a short
// snapshot interval, and returns its outcome and the working set its
// release handed back, reset.
func driveOn(t testing.TB, ws *workingSet, sc Scenario) (out outcome, next *workingSet) {
	t.Helper()
	b := journal.NewMemBackend()
	r := &ws.running
	if err := startOn(ws, sc, RunConfig{Journal: journal.NewWriter(b, 8)}, r); err != nil {
		t.Fatalf("start: %v\n  %s", err, sc)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatalf("step: %v\n  %s", err, sc)
		}
	}
	a, err := r.Finish()
	if err != nil {
		t.Fatalf("finish: %v\n  %s", err, sc)
	}
	var csv bytes.Buffer
	if err := a.Recorder.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Snapshots) == 0 {
		t.Fatalf("no journal snapshot taken\n  %s", sc)
	}
	out = outcome{digest: ComputeDigest(a), notes: csv.String(), journal: raw.Records, snapshots: raw.Snapshots}
	for _, v := range CheckAll(a, DefaultOracles()) {
		out.violations = append(out.violations, v.String())
	}
	r.release(func(w *workingSet) { next = w })
	return out, next
}

// fresh runs sc on a working set no run has used.
func fresh(t testing.TB, sc Scenario) outcome {
	out, _ := driveOn(t, new(workingSet), sc)
	return out
}

// after runs prev and then sc on the working set prev's run released.
func after(t testing.TB, prev, sc Scenario) outcome {
	_, ws := driveOn(t, new(workingSet), prev)
	out, _ := driveOn(t, ws, sc)
	return out
}

// recycleSet returns the scenarios the recycling oracle runs, and checks
// that they cover provisioning failures, preemptions, an adopted replan,
// gated stages, a heavy-tailed queue delay and placement off. The
// heavy-tailed run is the preemption-replan scenario again, its queue
// delay swapped for a Pareto with α = 2.5, so it plans and replans on
// the moments of a heavy tail with a finite variance.
func recycleSet(t *testing.T) []Scenario {
	var scs []Scenario
	for i := 0; i < 40; i++ {
		scs = append(scs, Generate(4, i))
	}
	scs = append(scs, Generate(4, 50), Generate(4, 143)) // adopted replan, preemption replan
	heavy := Generate(4, 143)
	heavy.Profile.Overheads.QueueDelay = stats.Pareto{Scale: 2, Alpha: 2.5}
	scs = append(scs, heavy)
	var failures, preempted, adopted, gated, heavyTail, scatter bool
	for _, sc := range scs {
		a, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		failures = failures || a.Retries > 0
		preempted = preempted || a.Result.Preemptions > 0
		adopted = adopted || slices.ContainsFunc(a.Result.Replans, func(d replan.Decision) bool { return d.Adopted })
		gated = gated || len(a.Grants) > 0
		_, pareto := sc.Profile.Overheads.QueueDelay.(stats.Pareto)
		heavyTail = heavyTail || (a.Planned && pareto)
		scatter = scatter || sc.DisablePlacement
	}
	if !(failures && preempted && adopted && gated && heavyTail && scatter) {
		t.Fatalf("recycle set covers failures=%v preemptions=%v adopted replan=%v gates=%v heavy tail=%v placement off=%v, want all",
			failures, preempted, adopted, gated, heavyTail, scatter)
	}
	return scs
}

// TestRecycledRunMatchesFresh: a run on a working set a finished run
// released decides exactly what it decides on a fresh one — the same
// digest, rendered notes, oracle verdicts and journal records and snapshots — whether
// the set last held a larger run, a smaller one, or every other run of
// the set in turn.
func TestRecycledRunMatchesFresh(t *testing.T) {
	scs := recycleSet(t)
	want := make([]outcome, len(scs))
	big, small := 0, 0
	for i, sc := range scs {
		want[i] = fresh(t, sc)
		if len(want[i].notes) > len(want[big].notes) {
			big = i
		}
		if len(want[i].notes) < len(want[small].notes) {
			small = i
		}
	}
	for i, sc := range scs {
		for _, prev := range []int{big, small} {
			if got := after(t, scs[prev], sc); !got.equal(want[i]) {
				t.Errorf("scenario 4/%d after 4/%d: digest %016x, fresh %016x (notes equal %v, violations %v vs %v, journal equal %v)",
					sc.Index, scs[prev].Index, uint64(got.digest), uint64(want[i].digest),
					got.notes == want[i].notes, got.violations, want[i].violations, slices.EqualFunc(got.journal, want[i].journal, bytes.Equal))
			}
		}
	}
	// One working set through every run of the set in turn.
	ws := new(workingSet)
	for i, sc := range scs {
		var got outcome
		got, ws = driveOn(t, ws, sc)
		if !got.equal(want[i]) {
			t.Errorf("scenario 4/%d as run %d of a chain: digest %016x, fresh %016x", sc.Index, i, uint64(got.digest), uint64(want[i].digest))
		}
	}
}

// TestReplansOutliveTheirWorkingSet: a finished run's Result.Replans is
// its own. Running another replanning scenario — one that takes more
// decisions — on the working set the run released, whose controller
// reuses its decision storage, leaves every decision and plan of it as
// it was.
func TestReplansOutliveTheirWorkingSet(t *testing.T) {
	first, next := Generate(1, 90), Generate(2, 34)
	r := new(Running)
	if err := startOn(new(workingSet), first, RunConfig{}, r); err != nil {
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
	got := a.Result.Replans
	if len(got) < 2 || !slices.ContainsFunc(got, func(d replan.Decision) bool { return d.Adopted }) {
		t.Fatalf("scenario 1/90 takes %d decisions, want several with an adoption: %+v", len(got), got)
	}
	want := slices.Clone(got)
	for i := range want {
		want[i].OldPlan, want[i].NewPlan = want[i].OldPlan.Clone(), want[i].NewPlan.Clone()
	}
	r.ws.detachArtifacts()
	var ws *workingSet
	r.release(func(w *workingSet) { ws = w })
	driveOn(t, ws, next)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Result.Replans changed when its working set ran 2/34:\n %+v\nwas\n %+v", got, want)
	}
}

// TestReleaseContract: Release before Finish panics, a second Release is
// a no-op, and a released run's journal writer no longer snapshots the
// state it returned.
func TestReleaseContract(t *testing.T) {
	sc := Generate(4, 50)
	b := journal.NewMemBackend()
	w := journal.NewWriter(b, 8)
	r, err := StartScenario(sc, RunConfig{Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release before Finish did not panic")
			}
		}()
		r.Release()
	}()
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	r.Release()
	r.Release()
	if r.ws != nil || r.clock != nil || r.job != nil || r.provider != nil || r.mgr != nil || r.rec != nil {
		t.Error("a released run still points into its working set")
	}
	// Records past the next snapshot interval: a hook still reading the
	// reset working set would panic or store a snapshot.
	snaps := func() int {
		raw, err := b.Load()
		if err != nil {
			t.Fatal(err)
		}
		return len(raw.Snapshots)
	}
	before := snaps()
	for i := 0; i < 16; i++ {
		if err := w.Record(&journal.End{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := snaps(); got != before {
		t.Errorf("the journal writer took %d snapshots of a released run", got-before)
	}
}

// FuzzRecycledRun: for any two generated scenarios, the second run on
// the working set the first released matches the second run on a fresh
// one.
func FuzzRecycledRun(f *testing.F) {
	f.Add(uint64(4), uint64(50), uint64(4), uint64(143))
	f.Add(uint64(4), uint64(143), uint64(2), uint64(52))
	f.Add(uint64(1), uint64(21), uint64(3), uint64(195))
	f.Add(uint64(3), uint64(195), uint64(1), uint64(0))
	f.Add(uint64(1), uint64(90), uint64(4), uint64(50))  // both replan: 6 decisions, then 2
	f.Add(uint64(3), uint64(164), uint64(2), uint64(34)) // both replan: 2 decisions, then 11
	f.Fuzz(func(t *testing.T, seedA, idxA, seedB, idxB uint64) {
		a, b := Generate(seedA, int(idxA%1024)), Generate(seedB, int(idxB%1024))
		if got, want := after(t, a, b), fresh(t, b); !got.equal(want) {
			t.Fatalf("run after %d/%d: digest %016x, fresh %016x (notes equal %v, journal equal %v)\n  %s",
				a.BatchSeed, a.Index, uint64(got.digest), uint64(want.digest),
				got.notes == want.notes, slices.EqualFunc(got.journal, want.journal, bytes.Equal), b)
		}
	})
}

// TestTraceOutlivesItsWorkingSet: the trace a finished Run hands out is
// its own. Running a larger scenario, with more events and more note
// text, on the working set the run released — whose recorder, already
// grown to that scenario's size, records over the same columns and
// arena — leaves every event, note and digest of it as it was.
func TestTraceOutlivesItsWorkingSet(t *testing.T) {
	first, next := Generate(4, 12), Generate(2, 34)
	var ws *workingSet
	keep := func(w *workingSet) { ws = w }
	if _, err := runOn(new(workingSet), next, RunConfig{}, keep); err != nil {
		t.Fatal(err)
	}
	a, err := runOn(ws, first, RunConfig{}, keep)
	if err != nil {
		t.Fatal(err)
	}
	render := func(a *Artifacts) (string, int) {
		var csv bytes.Buffer
		if err := a.Recorder.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		notes := 0
		for _, e := range a.Recorder.Events() {
			if e.Kind != trace.KindTrialIter && e.Kind != trace.KindTrialStart {
				notes += len(e.Note)
			}
		}
		return csv.String(), notes
	}
	want, wantNotes := render(a)
	wantDigest, wantBusy := ComputeDigest(a), a.Recorder.BusyGPUSeconds()
	b, err := runOn(ws, next, RunConfig{}, func(*workingSet) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, notes := render(b); b.Recorder.Len() <= a.Recorder.Len() || notes <= wantNotes {
		t.Fatalf("scenario 2/34 records %d events and %d note bytes, 4/12 %d and %d: want a larger run",
			b.Recorder.Len(), notes, a.Recorder.Len(), wantNotes)
	}
	if got, _ := render(a); got != want || ComputeDigest(a) != wantDigest || a.Recorder.BusyGPUSeconds() != wantBusy {
		t.Fatalf("scenario 4/12's trace changed when its working set ran 2/34")
	}
}
