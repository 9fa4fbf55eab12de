package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/journal"
)

// grantAll is the uncontended gate: every request granted in full.
func grantAll(req harness.GrantRequest) int { return req.Want }

// refRun executes sub's scenario uncontended and journaled offline,
// returning the reference digest and the journal's total write count,
// records and snapshots (for picking crash points).
func refRun(t *testing.T, sub Submission) (harness.Digest, uint64) {
	t.Helper()
	sc, err := BuildScenario(sub)
	if err != nil {
		t.Fatal(err)
	}
	b := journal.NewMemBackend()
	w := journal.NewWriter(b, 8)
	r, err := harness.StartScenario(sc, harness.RunConfig{Journal: w, Gate: grantAll})
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
	return harness.ComputeDigest(a), w.Seq()
}

// TestServerCrashRecoveryAcrossGenerations: generation A is killed
// mid-run with several live experiments (crash points injected into
// their journal writers, one with a torn tail); generation B starts on
// the same data directory, adopts the completed run from its replay
// sidecar, and resumes every unfinished journal by verified
// re-execution — each recovering to the same digest as an uninterrupted
// run. The cluster is uncontended (capacity >> demand) so grants are
// reproducible across generations and the uninterrupted reference is
// well-defined.
func TestServerCrashRecoveryAcrossGenerations(t *testing.T) {
	dataDir := t.TempDir()
	subs := []Submission{
		smallSub("acme", 301), // completes in generation A
		smallSub("acme", 302), // crashes early
		smallSub("beta", 303), // crashes mid-run, torn tail
		smallSub("ceta", 304), // crashes late
	}
	wantDigest := make([]harness.Digest, len(subs))
	totals := make([]uint64, len(subs))
	for i, sub := range subs {
		wantDigest[i], totals[i] = refRun(t, sub)
	}

	// Generation A: submissions arrive over HTTP; ids are assigned in
	// order (exp-0000..exp-0003). Crash points by id.
	cfg := Config{Capacity: 64, DataDir: dataDir, SnapshotInterval: 8}
	sA, tsA := newTestServer(t, cfg)
	crash := map[string][2]uint64{
		"exp-0001": {totals[1] / 4, 0},
		"exp-0002": {totals[2] / 2, 3},
		"exp-0003": {totals[3] * 3 / 4, 0},
	}
	sA.armJournal = func(id string, jw *journal.Writer) {
		if cp, ok := crash[id]; ok {
			jw.SetCrashPoint(cp[0], int(cp[1]))
		}
	}
	ids := make([]string, len(subs))
	for i, sub := range subs {
		resp, body := postSub(t, tsA, sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, want := range []string{"exp-0000", "exp-0001", "exp-0002", "exp-0003"} {
		if ids[i] != want {
			t.Fatalf("ids = %v", ids)
		}
	}
	sA.Drain()
	sA.Close() // all drivers finished; journals closed

	if st := mustGet(t, sA, ids[0]).State(); st != StateDone {
		t.Fatalf("gen A survivor state = %v", st)
	}
	for _, id := range ids[1:] {
		if st := mustGet(t, sA, id).State(); st != StateFailed {
			t.Fatalf("gen A %s state = %v, want failed", id, st)
		}
	}

	// Generation B: fresh process state, same data directory.
	sB, _ := newTestServer(t, cfg)
	rep, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 1 || rep.Resumed != 3 || len(rep.Failed) != 0 {
		t.Fatalf("recover report = %+v", rep)
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0] != "exp-0002" {
		t.Fatalf("damaged = %v, want [exp-0002] (torn tail)", rep.Damaged)
	}
	if live := sB.arb.Live(); live != 0 {
		t.Fatalf("%d experiments still hold GPUs after recovery", live)
	}

	// Every experiment — adopted and resumed — reads done with the same
	// digest as its uninterrupted reference, and its replay tuple
	// verifies offline.
	for i, id := range ids {
		exp := mustGet(t, sB, id)
		if st := exp.State(); st != StateDone {
			t.Fatalf("recovered %s state = %v", id, st)
		}
		tup, ok := exp.Tuple()
		if !ok {
			t.Fatalf("recovered %s has no tuple", id)
		}
		if tup.Digest != DigestString(wantDigest[i]) {
			t.Fatalf("%s recovered digest %s != uninterrupted %s", id, tup.Digest, DigestString(wantDigest[i]))
		}
		if _, err := VerifyReplay(tup); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}

	// New submissions never collide with recovered ids.
	exp, err := sB.reg.Submit(smallSub("acme", 999), nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "exp-0004" {
		t.Fatalf("post-recovery id = %s", exp.ID)
	}

	// Generation C: everything now has a replay sidecar — recovery is a
	// pure adoption pass, no re-execution.
	sC, _ := newTestServer(t, cfg)
	repC, err := sC.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if repC.Adopted != 4 || repC.Resumed != 0 || len(repC.Damaged) != 0 {
		t.Fatalf("gen C report = %+v", repC)
	}

	// The resumed journals carry the full grant record set on disk.
	for i, id := range ids {
		dir := filepath.Join(dataDir, subs[i].Tenant, id)
		fb, err := journal.NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		script, err := grantPrefix(fb)
		if cerr := fb.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(script) != len(subs[i].Stages) {
			t.Fatalf("%s journal holds %d grants for %d stages", id, len(script), len(subs[i].Stages))
		}
	}
}

// mustGet looks an experiment up in a server's registry.
func mustGet(t *testing.T, s *Server, id string) *Experiment {
	t.Helper()
	exp, ok := s.reg.Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return exp
}

// State returns the experiment's current lifecycle state.
func (e *Experiment) State() ExpState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// TestZeroSnapshotIntervalSelectsDefault: a zero Config.SnapshotInterval
// selects the default of 64 rather than disabling snapshots, so a
// journaled experiment's run header records interval 64.
func TestZeroSnapshotIntervalSelectsDefault(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Config{Capacity: 8, DataDir: dataDir})
	sub := smallSub("acme", 401)
	resp, body := postSub(t, ts, sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.Close()

	fb, err := journal.NewFileBackend(filepath.Join(dataDir, sub.Tenant, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	raw, err := fb.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Writes) == 0 {
		t.Fatal("empty journal")
	}
	rec, err := journal.DecodeRecord(raw.Writes[0])
	if err != nil {
		t.Fatal(err)
	}
	hdr, ok := rec.(*journal.Header)
	if !ok {
		t.Fatalf("first record is %T, not a run header", rec)
	}
	if hdr.Interval != 64 {
		t.Fatalf("journaled snapshot interval %d, want the default 64", hdr.Interval)
	}
}

// TestRecoverFailsRetiredEstimator: an unfinished run whose
// submission.json names the retired "full" estimator cannot be rebuilt
// into a scenario, so recovery reports it in Failed instead of resuming
// it.
func TestRecoverFailsRetiredEstimator(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Capacity: 8, DataDir: dataDir}
	sub := smallSub("acme", 402)
	_, total := refRun(t, sub)
	sA, tsA := newTestServer(t, cfg)
	sA.armJournal = func(_ string, jw *journal.Writer) { jw.SetCrashPoint(total/2, 0) }
	resp, body := postSub(t, tsA, sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	sA.Drain()
	sA.Close()

	sub.Estimator = "full"
	side, err := json.Marshal(subSidecar{ID: st.ID, Submission: sub})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, sub.Tenant, st.ID, "submission.json"), side, 0o644); err != nil {
		t.Fatal(err)
	}
	sB, _ := newTestServer(t, cfg)
	rep, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 0 || len(rep.Failed) != 1 || rep.Failed[0] != st.ID {
		t.Fatalf("recover report = %+v, want %s failed", rep, st.ID)
	}
}

// TestRecoverFailsOldFormatJournal: an unfinished run whose journal
// header is of version 2, the format before snapshots moved inline, is
// refused with the version error. Recovery lists it in Failed, never
// arms its journal writer or re-runs it, and leaves its journal as it
// found it.
func TestRecoverFailsOldFormatJournal(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Capacity: 8, DataDir: dataDir}
	sub := smallSub("acme", 405)
	_, total := refRun(t, sub)
	sA, tsA := newTestServer(t, cfg)
	sA.armJournal = func(_ string, jw *journal.Writer) { jw.SetCrashPoint(total/2, 0) }
	resp, body := postSub(t, tsA, sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	sA.Drain()
	sA.Close()

	// Rewrite the crashed journal with its header's version field set to
	// 2, re-framed so every CRC still holds.
	dir := filepath.Join(dataDir, sub.Tenant, st.ID)
	fb, err := journal.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fb.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Writes) < 2 {
		t.Fatalf("crashed journal holds %d writes", len(raw.Writes))
	}
	raw.Writes[0][1], raw.Writes[0][2] = 2, 0 // the header's little-endian version
	if err := fb.Truncate(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range raw.Writes {
		if err := fb.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var journals []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			journals = append(journals, filepath.Join(dir, e.Name()))
		}
	}
	if len(journals) != 1 {
		t.Fatalf("run directory holds %v, want one journal file beside its sidecars", entries)
	}
	before, err := os.ReadFile(journals[0])
	if err != nil {
		t.Fatal(err)
	}

	sB, _ := newTestServer(t, cfg)
	armed := false
	sB.armJournal = func(string, *journal.Writer) { armed = true }
	rep, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 0 || len(rep.Failed) != 1 || rep.Failed[0] != st.ID {
		t.Fatalf("recover report = %+v, want %s failed", rep, st.ID)
	}
	if armed {
		t.Fatal("recovery armed the old-format journal's writer")
	}
	if got := mustGet(t, sB, st.ID).StatusIn(sB.reg); got.State != "failed" || !strings.Contains(got.Error, "header version 2, want 3") {
		t.Fatalf("status %+v, want failed with the version error", got)
	}
	after, err := os.ReadFile(journals[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatal("recovery changed the old-format journal")
	}
}

// TestRecoverFailsUnboundedDuration: unfinished runs whose
// submission.json sets a cloud duration past cloud.MaxSeconds — each of
// the three that once overflowed the virtual clock mid-run — fail
// validation, so recovery lists them in Failed instead of resuming them
// into a panic, and resumes the run beside them.
func TestRecoverFailsUnboundedDuration(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Capacity: 8, DataDir: dataDir}
	bad := unboundedDurations()
	fields := []string{"preemption_mean_seconds", "queue_delay", "restore_seconds"}
	subs := make([]Submission, len(fields)+1)
	total := uint64(math.MaxUint64)
	for i := range subs {
		subs[i] = smallSub("acme", 410+uint64(i))
		_, n := refRun(t, subs[i])
		total = min(total, n)
	}
	sA, tsA := newTestServer(t, cfg)
	sA.armJournal = func(_ string, jw *journal.Writer) { jw.SetCrashPoint(total/2, 0) }
	ids := make([]string, len(subs))
	for i, sub := range subs {
		resp, body := postSub(t, tsA, sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	sA.Drain()
	sA.Close()

	for i, field := range fields {
		sub := bad[field]
		sub.Seed = subs[i].Seed
		side, err := json.Marshal(subSidecar{ID: ids[i], Submission: sub})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dataDir, sub.Tenant, ids[i], "submission.json"), side, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyReplay(ReplayTuple{Submission: sub}); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("VerifyReplay with %s = 1e308: %v, want the validation error naming it", field, err)
		}
	}
	sB, _ := newTestServer(t, cfg)
	rep, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	failed := slices.Clone(rep.Failed)
	slices.Sort(failed)
	want := slices.Clone(ids[:len(fields)])
	slices.Sort(want)
	if rep.Resumed != 1 || !slices.Equal(failed, want) {
		t.Fatalf("recover report = %+v, want %v failed and %s resumed", rep, want, ids[len(fields)])
	}
}

// TestRecoverFailsInfiniteVarianceLatency: an unfinished run whose
// submission.json asks for a Pareto α = 1.5 queue delay, which the
// planner cannot estimate, fails validation, so recovery lists it in
// Failed and resumes the other unfinished run; VerifyReplay refuses a
// tuple of that submission with the validation error.
func TestRecoverFailsInfiniteVarianceLatency(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Capacity: 8, DataDir: dataDir}
	subs := []Submission{smallSub("acme", 402), smallSub("acme", 403)}
	_, totalA := refRun(t, subs[0])
	_, totalB := refRun(t, subs[1])
	sA, tsA := newTestServer(t, cfg)
	sA.armJournal = func(_ string, jw *journal.Writer) { jw.SetCrashPoint(min(totalA, totalB)/2, 0) }
	ids := make([]string, len(subs))
	for i, sub := range subs {
		resp, body := postSub(t, tsA, sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	sA.Drain()
	sA.Close()

	bad := subs[0]
	bad.Cloud = &CloudSpec{QueueDelay: &DistSpec{Type: "pareto", Scale: 2, Alpha: 1.5}}
	side, err := json.Marshal(subSidecar{ID: ids[0], Submission: bad})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, bad.Tenant, ids[0], "submission.json"), side, 0o644); err != nil {
		t.Fatal(err)
	}
	sB, _ := newTestServer(t, cfg)
	rep, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 || len(rep.Failed) != 1 || rep.Failed[0] != ids[0] {
		t.Fatalf("recover report = %+v, want %s failed and %s resumed", rep, ids[0], ids[1])
	}
	if _, err := VerifyReplay(ReplayTuple{Submission: bad}); err == nil || !strings.Contains(err.Error(), "queue_delay") {
		t.Fatalf("VerifyReplay of the pareto 1.5 submission: %v, want the queue_delay validation error", err)
	}
}

// TestPanicFailsOnlyItsExperiment: a panic in one experiment's driver
// fails that experiment with the panic's value and nothing else. The
// other tenants' experiments complete, the fleet log keeps its
// invariants, every admission is released, and the server goes on
// serving. The failure is durable: a restarted server's Recover adopts
// the experiment as failed from its failed.json sidecar without running
// it again, and reports it in Failed.
func TestPanicFailsOnlyItsExperiment(t *testing.T) {
	const capacity, bad = 8, "exp-0002"
	cfg := Config{Capacity: capacity, DataDir: t.TempDir()}
	arm := func(id string, _ *journal.Writer) {
		if id == bad {
			panic("injected")
		}
	}
	s, ts := newTestServer(t, cfg)
	s.armJournal = arm
	subs := []Submission{
		smallSub("acme", 401), smallSub("beta", 402), smallSub("ceta", 403),
		smallSub("acme", 404), smallSub("beta", 405),
	}
	submitAll := func(subs []Submission) {
		t.Helper()
		for i, sub := range subs {
			if resp, body := postSub(t, ts, sub); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
			}
		}
		s.Drain()
	}
	submitAll(subs)
	// The server still admits and runs work after the panic.
	submitAll([]Submission{smallSub("ceta", 406)})
	total := len(subs) + 1

	for i := 0; i < total; i++ {
		id := fmt.Sprintf("exp-%04d", i)
		st := mustGet(t, s, id).StatusIn(s.reg)
		switch {
		case id == bad && (st.State != "failed" || st.Error != "panic: injected"):
			t.Fatalf("%s reads %s (%q), want failed with the panic", id, st.State, st.Error)
		case id != bad && st.State != "done":
			t.Fatalf("%s reads %s (%q), want done", id, st.State, st.Error)
		}
	}
	if live := s.arb.Live(); live != 0 || s.arb.InUse() != 0 {
		t.Fatalf("%d experiments hold %d GPUs after the drain", live, s.arb.InUse())
	}
	if vs := harness.CheckFleetInvariants(s.FleetLog(), capacity, total); len(vs) != 0 {
		t.Fatalf("fleet oracle: %v", vs)
	}
	s.Close()

	s2, _ := newTestServer(t, cfg)
	s2.armJournal = func(id string, jw *journal.Writer) {
		if id == bad {
			t.Errorf("restarted server ran the failed experiment %s again", id)
		}
		arm(id, jw)
	}
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != total-1 || rep.Resumed != 0 || !slices.Equal(rep.Failed, []string{bad}) {
		t.Fatalf("recover report = %+v, want %d adopted and %s failed", rep, total-1, bad)
	}
	if st := mustGet(t, s2, bad).StatusIn(s2.reg); st.State != "failed" || st.Error != "panic: injected" {
		t.Fatalf("recovered %s reads %s (%q)", bad, st.State, st.Error)
	}
	if live := s2.arb.Live(); live != 0 {
		t.Fatalf("%d experiments still hold GPUs after recovery", live)
	}
}

// TestRecoverTornSidecars: a sidecar torn by a crash fails at most its
// own run, never the recovery pass. Generation A completes four runs;
// then exp-0000's replay.json is emptied, exp-0001's replay.json is
// replaced by a torn failed.json and exp-0002's submission.json is
// emptied. Generation B adopts exp-0003, resumes exp-0000 from its
// journal (which rewrites its replay sidecar byte for byte), and lists
// exp-0001 and exp-0002 as failed, the latter under its directory's
// tenant. No sidecar write leaves a temporary file behind.
func TestRecoverTornSidecars(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Capacity: 64, DataDir: dataDir}
	sA, tsA := newTestServer(t, cfg)
	for i := 0; i < 4; i++ {
		if resp, body := postSub(t, tsA, smallSub("acme", uint64(501+i))); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	sA.Drain()
	sA.Close()

	run := func(id string) string { return filepath.Join(dataDir, "acme", id) }
	replay, err := os.ReadFile(filepath.Join(run("exp-0000"), "replay.json"))
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string]string{
		filepath.Join(run("exp-0000"), "replay.json"):     "",
		filepath.Join(run("exp-0001"), "failed.json"):     `{"id": "exp-00`,
		filepath.Join(run("exp-0002"), "submission.json"): "",
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(run("exp-0001"), "replay.json")); err != nil {
		t.Fatal(err)
	}

	sB, _ := newTestServer(t, cfg)
	rep, err := sB.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Adopted != 1 || rep.Resumed != 1 || !slices.Equal(rep.Failed, []string{"exp-0001", "exp-0002"}) {
		t.Fatalf("recover report = %+v, want 1 adopted, 1 resumed, exp-0001 and exp-0002 failed", rep)
	}
	if st := mustGet(t, sB, "exp-0000").State(); st != StateDone {
		t.Fatalf("exp-0000 state = %v, want done", st)
	}
	if got, err := os.ReadFile(filepath.Join(run("exp-0000"), "replay.json")); err != nil || !slices.Equal(got, replay) {
		t.Fatalf("resumed exp-0000's replay sidecar = %q (%v), want it rewritten as before", got, err)
	}
	for _, id := range []string{"exp-0001", "exp-0002"} {
		st := mustGet(t, sB, id).StatusIn(sB.reg)
		if st.State != "failed" || !strings.Contains(st.Error, "unexpected end of JSON input") {
			t.Fatalf("%s status %+v, want failed with the decode error", id, st)
		}
	}
	if tenant := mustGet(t, sB, "exp-0002").Sub.Tenant; tenant != "acme" {
		t.Fatalf("exp-0002 tenant %q, want the directory's acme", tenant)
	}
	for i := 0; i < 4; i++ {
		entries, err := os.ReadDir(run(fmt.Sprintf("exp-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("exp-%04d: sidecar write left %s behind", i, e.Name())
			}
		}
	}
}
