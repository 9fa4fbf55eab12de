package harness

import (
	"errors"
	"sort"
	"testing"

	"repro/internal/journal"
	"repro/internal/planner"
)

// sweepScenarios pins the crash-point sweep's inputs: a plain scenario,
// the drift-triggered replan scenario from the FuzzEndToEnd corpus
// whose adopted tail means recovery must rebuild controller state, not
// just executor state, and a paper-path scenario that plans statically
// from a measured profile under an absolute deadline.
func sweepScenarios() []Scenario {
	profiled := paperScenario(planner.PolicyStatic, 30*60, 10)
	profiled.UseProfiler = true
	return []Scenario{
		Generate(1, 0),
		Generate(4, 50), // drift-triggered replan, tail adopted
		profiled,
	}
}

// sweepPoints enumerates the crash points for a journal of total
// records: the extremes (0 = nothing durable, 1 = header only,
// total-1 = one record short of completion), every k-th record, and
// every snapshot boundary ±1 — the seams where a recovery
// implementation that is even one record off will diverge. Torn frames
// alternate with clean kills across the sweep.
func sweepPoints(total, interval uint64) []CrashPoint {
	set := map[uint64]bool{0: true, 1: true, total - 1: true}
	k := total / 24
	if k == 0 {
		k = 1
	}
	for s := uint64(0); s < total; s += k {
		set[s] = true
	}
	if interval > 0 {
		for b := interval; b < total; b += interval {
			set[b-1] = true
			set[b] = true
			if b+1 < total {
				set[b+1] = true
			}
		}
	}
	seqs := make([]uint64, 0, len(set))
	for s := range set {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]CrashPoint, len(seqs))
	for i, s := range seqs {
		torn := 0
		if i%2 == 1 {
			torn = 1 + int(s%37)
		}
		out[i] = CrashPoint{Seq: s, Torn: torn}
	}
	return out
}

// crashAndRecover kills a journaled run of sc at cp on a fresh backend
// from mk, recovers it, and fails the test unless the recovered run is
// bit-identical to the uninterrupted reference — digest and journal
// both. ref is the reference journal's backend, wantDigest its digest,
// wantRecords its record count.
func crashAndRecover(t *testing.T, sc Scenario, interval uint64, cp CrashPoint,
	ref journal.Backend, wantDigest Digest, wantRecords uint64,
	mk func() journal.Backend) {
	t.Helper()
	crashed := mk()
	defer crashed.Close()
	wc := journal.NewWriter(crashed, interval)
	wc.SetCrashPoint(cp.Seq, cp.Torn)
	if _, err := Run(sc, RunConfig{Journal: wc}); !errors.Is(err, journal.ErrCrash) {
		t.Fatalf("crash at %d/%d: run did not die (err=%v)", cp.Seq, wantRecords, err)
	}

	w2, hdr, damage, err := journal.Resume(crashed, interval)
	if err != nil {
		t.Fatalf("crash at %d torn %d: resume: %v", cp.Seq, cp.Torn, err)
	}
	if cp.Seq > 0 && hdr == nil {
		t.Fatalf("crash at %d: journal lost its header", cp.Seq)
	}
	if cp.Torn > 0 && damage == "" {
		t.Fatalf("crash at %d torn %d: torn frame left no damage report", cp.Seq, cp.Torn)
	}
	if cp.Torn == 0 && damage != "" {
		t.Fatalf("clean crash at %d reported damage %q", cp.Seq, damage)
	}
	a, err := Run(sc, RunConfig{Journal: w2})
	if err != nil {
		t.Fatalf("crash at %d torn %d: recovery run: %v", cp.Seq, cp.Torn, err)
	}
	if got := ComputeDigest(a); got != wantDigest {
		t.Errorf("crash at %d/%d torn %d: recovered digest %016x != uninterrupted %016x",
			cp.Seq, wantRecords, cp.Torn, uint64(got), uint64(wantDigest))
	}
	if w2.Seq() != wantRecords {
		t.Errorf("crash at %d: recovered journal has %d records, want %d", cp.Seq, w2.Seq(), wantRecords)
	}
	diff, err := journal.Diff(ref, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Errorf("crash at %d torn %d: recovered journal differs from reference: %s", cp.Seq, cp.Torn, diff)
	}
}

// TestCrashPointSweepMem is the exhaustive crash-point sweep on the
// in-memory backend: for every pinned scenario, kill and recover at
// every sweep point and require bit-identical recovery at each.
func TestCrashPointSweepMem(t *testing.T) {
	const interval = 7
	for _, sc := range sweepScenarios() {
		ref := journal.NewMemBackend()
		w := journal.NewWriter(ref, interval)
		a, err := Run(sc, RunConfig{Journal: w})
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		want, total := ComputeDigest(a), w.Seq()
		points := sweepPoints(total, interval)
		t.Logf("seed=%d index=%d: %d records, %d crash points", sc.BatchSeed, sc.Index, total, len(points))
		for _, cp := range points {
			crashAndRecover(t, sc, interval, cp, ref, want, total,
				func() journal.Backend { return journal.NewMemBackend() })
		}
	}
}

// TestCrashPointSweepFile runs the sweep's seam points on the
// file-backed journal with segments small enough that every run rolls
// many times, so crashes land mid-segment, at segment boundaries, and in
// snapshot files alike. The full point set stays on the in-memory
// backend; disk covers the representative seams.
func TestCrashPointSweepFile(t *testing.T) {
	const interval = 7
	sc := Generate(4, 50) // replan-adopting scenario: hardest recovery
	ref := journal.NewMemBackend()
	w := journal.NewWriter(ref, interval)
	a, err := Run(sc, RunConfig{Journal: w})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want, total := ComputeDigest(a), w.Seq()
	points := []CrashPoint{
		{Seq: 0}, {Seq: 1, Torn: 5},
		{Seq: interval - 1}, {Seq: interval, Torn: 3}, {Seq: interval + 1},
		{Seq: total / 2}, {Seq: total / 2, Torn: 17},
		{Seq: total - 1, Torn: 7},
	}
	for _, cp := range points {
		crashAndRecover(t, sc, interval, cp, ref, want, total, func() journal.Backend {
			fb, err := journal.NewFileBackend(t.TempDir(), journal.WithSegmentBytes(256))
			if err != nil {
				t.Fatal(err)
			}
			return fb
		})
	}
}

// TestReplanScenarioJournalsAdoptedDecision guards the sweep's pinned
// replan scenario against corpus drift: (4, 50) must actually journal an
// adopted replan decision, or the "recovery rebuilds controller state"
// coverage silently evaporates.
func TestReplanScenarioJournalsAdoptedDecision(t *testing.T) {
	b := journal.NewMemBackend()
	w := journal.NewWriter(b, 7)
	if _, err := Run(Generate(4, 50), RunConfig{Journal: w}); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	adopted := false
	for _, p := range raw.Records {
		rec, err := journal.DecodeRecord(p)
		if err != nil {
			t.Fatalf("journaled record undecodable: %v", err)
		}
		if d, ok := rec.(*journal.Decision); ok && d.Adopted {
			adopted = true
		}
	}
	if !adopted {
		t.Fatal("scenario (4, 50) journaled no adopted replan decision; pick a new replan-adopting pin")
	}
}

// TestSnapshotIntervalInvisible is the journaling-purity property test:
// the snapshot interval — every record, every 7th, or never — must not
// change the run digest, and none of them may differ from the
// unjournaled run. Run under -race by `make test-recovery`, this also
// catches snapshot capture racing the executor.
func TestSnapshotIntervalInvisible(t *testing.T) {
	for _, sc := range []Scenario{Generate(1, 0), Generate(1, 1), Generate(4, 50)} {
		plain, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		want := ComputeDigest(plain)
		for _, interval := range []uint64{1, 7, 0} {
			w := journal.NewWriter(journal.NewMemBackend(), interval)
			a, err := Run(sc, RunConfig{Journal: w})
			if err != nil {
				t.Fatalf("interval %d: %v", interval, err)
			}
			if got := ComputeDigest(a); got != want {
				t.Errorf("seed=%d index=%d: interval %d digest %016x != plain %016x — journaling is not invisible",
					sc.BatchSeed, sc.Index, interval, uint64(got), uint64(want))
			}
		}
	}
}

// TestCrashRecoverEmptyJournal covers the degenerate kill before
// anything was durable: recovery from an empty journal is a fresh run.
func TestCrashRecoverEmptyJournal(t *testing.T) {
	sc := Generate(1, 0)
	_, problems, err := CrashRecover(sc, 7,
		func(uint64) CrashPoint { return CrashPoint{Seq: 0, Torn: 3} },
		func(string) (journal.Backend, error) { return journal.NewMemBackend(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestResumeRefusesForeignJournal pins the identity check: a journal
// written by one scenario must not silently recover as another.
func TestResumeRefusesForeignJournal(t *testing.T) {
	b := journal.NewMemBackend()
	w := journal.NewWriter(b, 0)
	w.SetCrashPoint(40, 0)
	if _, err := Run(Generate(1, 0), RunConfig{Journal: w}); !errors.Is(err, journal.ErrCrash) {
		t.Fatalf("crash injection failed: %v", err)
	}
	w2, hdr, _, err := journal.Resume(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || hdr.BatchSeed != 1 || hdr.Index != 0 {
		t.Fatalf("header = %+v", hdr)
	}
	// Re-driving a different scenario against the foreign prefix must fail
	// loudly at the header record, before any state is trusted.
	if _, err := Run(Generate(2, 5), RunConfig{Journal: w2}); !errors.Is(err, journal.ErrDiverged) {
		t.Fatalf("foreign scenario replayed against journal: err=%v, want ErrDiverged", err)
	}
}

// FuzzRecover lets the fuzzer pick the scenario, crash offset, torn
// length and snapshot interval: every reachable crash point must either
// recover bit-identically or fail loudly — never complete with a
// different digest or journal. The checked-in corpus seeds the pinned
// sweep scenarios at their seam offsets.
func FuzzRecover(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), uint64(3), uint64(1))
	f.Add(uint64(1), uint64(0), uint64(1), uint64(0), uint64(2))
	f.Add(uint64(4), uint64(50), uint64(48), uint64(17), uint64(2)) // replan mid-journal
	f.Add(uint64(4), uint64(50), uint64(136), uint64(0), uint64(0)) // one record short of End
	f.Add(uint64(42), uint64(13), uint64(7), uint64(39), uint64(3))
	f.Fuzz(func(t *testing.T, seed, rawIndex, rawSeq, rawTorn, rawInterval uint64) {
		sc := Generate(seed, int(rawIndex%64))
		interval := []uint64{0, 1, 7, 32}[rawInterval%4]
		cp := CrashPoint{Torn: int(rawTorn % 64)}
		outcome, problems, err := CrashRecover(sc, interval,
			func(total uint64) CrashPoint {
				cp.Seq = rawSeq % total
				return cp
			},
			func(string) (journal.Backend, error) { return journal.NewMemBackend(), nil })
		if err != nil {
			t.Fatalf("crash experiment aborted: %v\n  %s", err, sc)
		}
		for _, p := range problems {
			t.Errorf("%s (interval %d, crash %+v)\n  %s", p, interval, outcome.Crash, sc)
		}
	})
}
