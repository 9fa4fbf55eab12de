package harness

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/journal"
	"repro/internal/planner"
)

// sweepScenarios pins the crash-point sweep's inputs: a plain scenario,
// the drift-triggered replan scenario from the FuzzEndToEnd corpus
// whose adopted tail means recovery must rebuild controller state, not
// just executor state, a gated scenario whose grants are journaled
// inputs, and a paper-path scenario that plans statically from a
// measured profile under an absolute deadline.
func sweepScenarios() []Scenario {
	profiled := paperScenario(planner.PolicyStatic, 30*60, 10)
	profiled.UseProfiler = true
	return []Scenario{
		Generate(1, 0),
		Generate(4, 50),  // drift-triggered replan, tail adopted
		Generate(42, 13), // arbiter caps on every stage
		profiled,
	}
}

// writeLog is an in-memory journal backend that logs every durable
// write — a record's type, or "snapshot" — and every sync, in order.
// It embeds the MemBackend, so it tears writes as the MemBackend does.
type writeLog struct {
	*journal.MemBackend
	log []string
}

func newWriteLog() *writeLog { return &writeLog{MemBackend: journal.NewMemBackend()} }

func (b *writeLog) Append(p []byte) error {
	name := "undecodable"
	if rec, err := journal.DecodeRecord(p); err == nil {
		name = fmt.Sprintf("%T", rec)[len("*journal."):]
	}
	b.log = append(b.log, name)
	return b.MemBackend.Append(p)
}

func (b *writeLog) PutSnapshot(seq uint64, p []byte) error {
	b.log = append(b.log, "Snapshot")
	return b.MemBackend.PutSnapshot(seq, p)
}

func (b *writeLog) Sync() error {
	b.log = append(b.log, "sync")
	return b.MemBackend.Sync()
}

// writes returns the logged writes, syncs left out: entry i is durable
// write i, the unit of CrashPoint.Seq.
func (b *writeLog) writes() []string {
	var out []string
	for _, w := range b.log {
		if w != "sync" {
			out = append(out, w)
		}
	}
	return out
}

// sweepPoints enumerates the crash points for a reference run whose
// durable writes are writes: the extremes (0 = nothing durable, 1 =
// header only, total-1 = one write short of completion), every k-th
// write, every snapshot ±1 and the write right after every Grant — the
// seams where a recovery implementation that is even one write off will
// diverge. Torn frames alternate with clean kills across the sweep, and
// the final snapshot is always torn.
func sweepPoints(writes []string) []CrashPoint {
	total := uint64(len(writes))
	set := map[uint64]bool{0: true, 1: true, total - 1: true}
	k := total / 24
	if k == 0 {
		k = 1
	}
	for s := uint64(0); s < total; s += k {
		set[s] = true
	}
	lastSnap := uint64(0)
	for i, w := range writes {
		s := uint64(i)
		switch w {
		case "Snapshot":
			lastSnap = s
			set[s-1], set[s] = true, true
			if s+1 < total {
				set[s+1] = true
			}
		case "Grant":
			if s+1 < total {
				set[s+1] = true
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
		if i%2 == 1 || (s == lastSnap && s > 0) {
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
// wantWrites its durable write count.
func crashAndRecover(t *testing.T, sc Scenario, interval uint64, cp CrashPoint,
	ref journal.Backend, wantDigest Digest, wantWrites uint64,
	mk func() journal.Backend) {
	t.Helper()
	crashed := mk()
	defer crashed.Close()
	wc := journal.NewWriter(crashed, interval)
	wc.SetCrashPoint(cp.Seq, cp.Torn)
	if _, err := Run(sc, RunConfig{Journal: wc}); !errors.Is(err, journal.ErrCrash) {
		t.Fatalf("crash at %d/%d: run did not die (err=%v)", cp.Seq, wantWrites, err)
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
			cp.Seq, wantWrites, cp.Torn, uint64(got), uint64(wantDigest))
	}
	if w2.Seq() != wantWrites {
		t.Errorf("crash at %d: recovered journal made %d writes, want %d", cp.Seq, w2.Seq(), wantWrites)
	}
	diff, err := journal.Diff(ref, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Errorf("crash at %d torn %d: recovered journal differs from reference: %s", cp.Seq, cp.Torn, diff)
	}
}

// sweepRef runs sc journaled on a write log and returns it with the
// run's digest.
func sweepRef(t *testing.T, sc Scenario, interval uint64) (*writeLog, Digest) {
	t.Helper()
	ref := newWriteLog()
	a, err := Run(sc, RunConfig{Journal: journal.NewWriter(ref, interval)})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return ref, ComputeDigest(a)
}

// TestCrashPointSweepMem is the exhaustive crash-point sweep on the
// in-memory backend: for every pinned scenario, at snapshot intervals 7
// and 1 (a snapshot after every event), kill and recover at every sweep
// point and require bit-identical recovery at each.
func TestCrashPointSweepMem(t *testing.T) {
	grants := false
	for _, sc := range sweepScenarios() {
		for _, interval := range []uint64{7, 1} {
			ref, want := sweepRef(t, sc, interval)
			writes := ref.writes()
			grants = grants || slices.Contains(writes, "Grant")
			points := sweepPoints(writes)
			t.Logf("seed=%d index=%d interval %d: %d writes, %d crash points",
				sc.BatchSeed, sc.Index, interval, len(writes), len(points))
			for _, cp := range points {
				crashAndRecover(t, sc, interval, cp, ref, want, uint64(len(writes)),
					func() journal.Backend { return journal.NewMemBackend() })
			}
		}
	}
	if !grants {
		t.Fatal("no sweep scenario journaled a grant; pick a new gated pin")
	}
}

// TestCrashPointSweepFile runs the sweep's seam points on the
// file-backed journal, so crashes land mid-file, in inline snapshots
// and right after grants alike: the replan-adopting scenario and a
// gated one, each with its final snapshot torn. The full point set
// stays on the in-memory backend; disk covers the seams.
func TestCrashPointSweepFile(t *testing.T) {
	const interval = 7
	for _, sc := range []Scenario{Generate(4, 50), findCapScenario(t, 106)} {
		ref, want := sweepRef(t, sc, interval)
		writes := ref.writes()
		total := uint64(len(writes))
		points := []CrashPoint{{Seq: 0}, {Seq: 1, Torn: 5}, {Seq: total / 2}, {Seq: total / 2, Torn: 17}, {Seq: total - 1, Torn: 7}}
		lastSnap, afterGrant := uint64(0), uint64(0)
		for i, w := range writes {
			switch {
			case w == "Snapshot":
				lastSnap = uint64(i)
			case w == "Grant" && afterGrant == 0 && i+1 < len(writes):
				afterGrant = uint64(i + 1)
			}
		}
		if lastSnap == 0 || (len(sc.ArbiterCaps) > 0 && afterGrant == 0) {
			t.Fatalf("seed=%d index=%d: writes %v hold no snapshot or no grant to crash at", sc.BatchSeed, sc.Index, writes)
		}
		points = append(points, CrashPoint{Seq: lastSnap, Torn: 11}, CrashPoint{Seq: lastSnap + 1})
		if afterGrant > 0 {
			points = append(points, CrashPoint{Seq: afterGrant}, CrashPoint{Seq: afterGrant, Torn: 3})
		}
		for _, cp := range points {
			crashAndRecover(t, sc, interval, cp, ref, want, total, func() journal.Backend {
				fb, err := journal.NewFileBackend(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return fb
			})
		}
	}
}

// TestReplanScenarioAdoptsDecision guards the sweep's pinned replan
// scenario against corpus drift: (4, 50) must actually adopt a replan
// decision, or the "recovery rebuilds controller state" coverage
// silently evaporates.
func TestReplanScenarioAdoptsDecision(t *testing.T) {
	a, err := RunScenario(Generate(4, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Result.Replans {
		if d.Adopted {
			return
		}
	}
	t.Fatalf("scenario (4, 50) adopted none of its %d replan decisions; pick a new replan-adopting pin", len(a.Result.Replans))
}

// TestJournalHoldsInputsOnly: a journaled run writes its header, its
// grants and its End as records, each synced before the Writer returns,
// and nothing else but snapshots.
func TestJournalHoldsInputsOnly(t *testing.T) {
	for _, sc := range []Scenario{Generate(4, 50), findCapScenario(t, 105)} {
		b := newWriteLog()
		a, err := Run(sc, RunConfig{Journal: journal.NewWriter(b, 7)})
		if err != nil {
			t.Fatal(err)
		}
		var records []string
		for i, w := range b.log {
			switch w {
			case "Header", "Grant", "End":
				records = append(records, w)
				if i+1 == len(b.log) || b.log[i+1] != "sync" {
					t.Fatalf("seed=%d index=%d: %s record (log entry %d) not synced before the next write: %v",
						sc.BatchSeed, sc.Index, w, i, b.log)
				}
			case "Snapshot":
			case "sync":
				if i == 0 || b.log[i-1] == "Snapshot" || b.log[i-1] == "sync" {
					t.Fatalf("seed=%d index=%d: sync at log entry %d follows no record", sc.BatchSeed, sc.Index, i)
				}
			default:
				t.Fatalf("seed=%d index=%d: journal holds a %s record", sc.BatchSeed, sc.Index, w)
			}
		}
		if want := 2 + len(a.Grants); len(records) != want || records[0] != "Header" || records[len(records)-1] != "End" {
			t.Fatalf("seed=%d index=%d: records %v, want a header, %d grants and an End", sc.BatchSeed, sc.Index, records, len(a.Grants))
		}
	}
}

// TestEventFoldFollowsTheTrace: on a run without replan decisions the
// event fold is the fold of the recorded trace, so the End carries the
// fold of every event and each snapshot the fold of its first Seq
// events, the bytes ComputeDigest folds for them.
func TestEventFoldFollowsTheTrace(t *testing.T) {
	sc := findCapScenario(t, 105)
	b := journal.NewMemBackend()
	a, err := Run(sc, RunConfig{Journal: journal.NewWriter(b, 7)})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	folds := make([]hasher, a.Recorder.Len()+1)
	folds[0] = newHasher()
	for i := range a.Recorder.Len() {
		folds[i+1] = folds[i]
		folds[i+1].event(a.Recorder.FieldsAt(i))
	}
	rec, err := journal.DecodeRecord(raw.Writes[len(raw.Writes)-1])
	if err != nil {
		t.Fatal(err)
	}
	if end := rec.(*journal.End); end.Fold != uint64(folds[len(folds)-1]) {
		t.Fatalf("End fold %016x, trace fold %016x", end.Fold, uint64(folds[len(folds)-1]))
	}
	snaps := snapshotsIn(t, raw)
	if len(snaps) == 0 {
		t.Fatal("run took no snapshot")
	}
	for _, s := range snaps {
		if s.Fold != uint64(folds[s.Seq]) {
			t.Fatalf("snapshot %d fold %016x, fold of its events %016x", s.Seq, s.Fold, uint64(folds[s.Seq]))
		}
	}
}

// snapshotsIn decodes the snapshots among raw's writes, in write order.
func snapshotsIn(t testing.TB, raw *journal.Raw) []*journal.Snapshot {
	t.Helper()
	var out []*journal.Snapshot
	for i, p := range raw.Writes {
		rec, err := journal.DecodeRecord(p)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if s, ok := rec.(*journal.Snapshot); ok {
			out = append(out, s)
		}
	}
	return out
}

// TestSnapshotStateSeesEachPart: a snapshot's State is a pure read of
// the control-plane state, and it moves when one part it covers does —
// either RNG cursor or the replan detector alone, or a step of the run —
// so recovery's byte check of a snapshot is as deep as the state it
// folds.
func TestSnapshotStateSeesEachPart(t *testing.T) {
	sc := Generate(4, 50)
	r, err := StartScenario(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && !r.Done(); i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ws := r.ws
	if r.job == nil || !sc.ReplanEnabled {
		t.Fatalf("scenario (4, 50) has no running job or no replan controller after 64 steps")
	}
	state := func() uint64 {
		return snapshotState(r.clock, r.job, r.provider, r.rec, &ws.ctl, &ws.execRNG, &ws.provRNG)
	}
	seen := map[uint64]string{state(): "start"}
	if _, ok := seen[state()]; !ok {
		t.Fatal("snapshotState is not a pure read: two calls differ")
	}
	for _, p := range []struct {
		part    string
		perturb func()
	}{
		{"executor RNG", func() { ws.execRNG.Uint64() }},
		{"provider RNG", func() { ws.provRNG.Uint64() }},
		{"replan detector", func() { ws.ctl.ObserveIteration(1, 1e6, r.clock.Now()) }},
		{"one step", func() {
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		p.perturb()
		got := state()
		if prev, dup := seen[got]; dup {
			t.Errorf("State %016x after perturbing the %s equals the State after %s", got, p.part, prev)
		}
		seen[got] = p.part
	}
}

// TestCrashSyncsNothingAfter: an injected crash, here at the write
// right after a gated run's first grant, syncs exactly the records
// written before it and nothing after.
func TestCrashSyncsNothingAfter(t *testing.T) {
	sc := findCapScenario(t, 106)
	ref, _ := sweepRef(t, sc, 7)
	writes := ref.writes()
	at := slices.Index(writes, "Grant") + 1
	if at == 0 {
		t.Fatal("gated run wrote no grant")
	}
	crashed := newWriteLog()
	w := journal.NewWriter(crashed, 7)
	w.SetCrashPoint(uint64(at), 0)
	if _, err := Run(sc, RunConfig{Journal: w}); !errors.Is(err, journal.ErrCrash) {
		t.Fatalf("crash at %d: err = %v", at, err)
	}
	if got := crashed.writes(); !slices.Equal(got, writes[:at]) {
		t.Fatalf("crashed journal wrote %v, want %v", got, writes[:at])
	}
	records := 0
	for _, w := range writes[:at] {
		if w != "Snapshot" {
			records++
		}
	}
	if syncs := len(crashed.log) - at; syncs != records {
		t.Fatalf("%d syncs for the %d records written before the crash (log %v)", syncs, records, crashed.log)
	}
}

// TestTamperedJournalDiverges: recovery re-derives the inputs and the
// event fold, so a journal altered behind its CRCs — one stored
// snapshot's fold, the End's fold, one Grant — fails with ErrDiverged.
func TestTamperedJournalDiverges(t *testing.T) {
	sc := findCapScenario(t, 106)
	ref, _ := sweepRef(t, sc, 7)
	raw, err := ref.Load()
	if err != nil {
		t.Fatal(err)
	}
	var lastSnap uint64
	for _, s := range snapshotsIn(t, raw) {
		lastSnap = max(lastSnap, s.Seq)
	}
	for _, target := range []string{"Snapshot", "End", "Grant"} {
		t.Run(target, func(t *testing.T) {
			tampered := journal.NewMemBackend()
			done := false
			for _, p := range raw.Writes {
				rec, err := journal.DecodeRecord(p)
				if err != nil {
					t.Fatal(err)
				}
				switch r := rec.(type) {
				case *journal.End:
					if target == "End" {
						r.Fold ^= 1
						done = true
					}
				case *journal.Grant:
					if target == "Grant" && !done && r.Granted > 1 {
						r.Granted--
						done = true
					}
				case *journal.Snapshot:
					if target == "Snapshot" && r.Seq == lastSnap {
						r.Fold ^= 1 << 63
						done = true
					}
				}
				if err := tampered.Append(rec.Encode()); err != nil {
					t.Fatal(err)
				}
			}
			if !done {
				t.Fatalf("journal holds no %s to tamper with", target)
			}
			w, _, damage, err := journal.Resume(tampered, 7)
			if err != nil || damage != "" {
				t.Fatalf("resume: damage %q, err %v", damage, err)
			}
			if _, err := Run(sc, RunConfig{Journal: w}); !errors.Is(err, journal.ErrDiverged) {
				t.Fatalf("recovery over a tampered %s: err = %v, want ErrDiverged", target, err)
			}
		})
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
	w := journal.NewWriter(b, 7)
	w.SetCrashPoint(3, 0) // the header and two snapshots are durable
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

// FuzzRecover lets the fuzzer pick the scenario, crash write, torn
// length and snapshot interval: every reachable crash point must either
// recover bit-identically or fail loudly — never complete with a
// different digest or journal. The checked-in corpus seeds the pinned
// sweep scenarios at their seams; a seed's crash write is its third
// argument modulo the run's write count.
func FuzzRecover(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), uint64(3), uint64(1))    // torn header: nothing durable
	f.Add(uint64(1), uint64(0), uint64(1), uint64(0), uint64(2))    // interval 7: killed at the first snapshot
	f.Add(uint64(4), uint64(50), uint64(48), uint64(17), uint64(2)) // replan scenario, interval 7: write 6 of 21, a torn snapshot
	f.Add(uint64(4), uint64(50), uint64(1), uint64(0), uint64(0))   // interval 0: killed at End, only the header durable
	f.Add(uint64(42), uint64(13), uint64(3), uint64(39), uint64(3)) // gated, interval 32: torn snapshot right after the second grant
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
