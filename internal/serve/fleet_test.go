package serve

import (
	"fmt"
	"testing"

	"repro/internal/harness"
)

// FleetJob is one experiment in a deterministic in-process fleet run.
type FleetJob struct {
	ID       string
	Tenant   string
	Scenario harness.Scenario
}

// FleetJobResult is one fleet job's outcome.
type FleetJobResult struct {
	ID          string
	Artifacts   *harness.Artifacts
	Digest      harness.Digest
	DeadlineMet bool
	Err         error
}

// FleetResult bundles a fleet run's outcomes and the arbiter log.
type FleetResult struct {
	Jobs []FleetJobResult
	Log  []harness.FleetEvent
}

// Met counts jobs that finished within their deadline.
func (r *FleetResult) Met() int {
	n := 0
	for _, j := range r.Jobs {
		if j.DeadlineMet {
			n++
		}
	}
	return n
}

// RunFleet executes jobs against one shared arbiter without HTTP or
// goroutines: admission is FIFO as capacity frees, and execution
// interleaves the live runs by always stepping the one with the smallest
// (virtual time, submission index) — a deterministic schedule, so the
// differential tests (slack vs FIFO policy on identical fleets) compare
// exactly one changed variable. Every stage boundary arbitrates through
// Arbiter.Exchange with the harness-computed deadline slack, exactly as
// the live server's drivers do.
func RunFleet(capacity int, policy Policy, jobs []FleetJob) (*FleetResult, error) {
	arb, err := NewArbiter(capacity, policy)
	if err != nil {
		return nil, err
	}
	res := &FleetResult{Jobs: make([]FleetJobResult, len(jobs))}
	for i := range jobs {
		res.Jobs[i].ID = jobs[i].ID
		arb.Note("submit", jobs[i].ID, jobs[i].Tenant)
	}

	type liveRun struct {
		idx int
		run *harness.Running
	}
	var live []*liveRun
	next := 0 // next job to admit (FIFO)

	admit := func() error {
		for next < len(jobs) && arb.Free() >= 1 {
			j := jobs[next]
			idx := next
			next++
			if err := arb.Admit(j.ID, j.Tenant); err != nil {
				return err
			}
			gate := func(req harness.GrantRequest) int {
				slack := req.Deadline - req.Now - req.PredictedRemaining
				g, gerr := arb.Exchange(j.ID, req.Stage, req.Want, slack)
				if gerr != nil {
					return req.Want
				}
				return g
			}
			run, err := harness.StartScenario(j.Scenario, harness.RunConfig{Gate: gate})
			if err != nil {
				res.Jobs[idx].Err = fmt.Errorf("start %s: %w", j.ID, err)
				arb.Done(j.ID)
				continue
			}
			live = append(live, &liveRun{idx: idx, run: run})
		}
		return nil
	}

	finish := func(li int) error {
		lr := live[li]
		live = append(live[:li], live[li+1:]...)
		a, err := lr.run.Finish()
		jr := &res.Jobs[lr.idx]
		if err != nil {
			jr.Err = err
		} else {
			jr.Artifacts = a
			jr.Digest = harness.ComputeDigest(a)
			jr.DeadlineMet = a.Result.JCT <= a.Deadline
		}
		arb.Done(jobs[lr.idx].ID)
		return admit()
	}

	if err := admit(); err != nil {
		return nil, err
	}
	for len(live) > 0 {
		// Pick the live run with the smallest virtual clock, ties broken
		// by submission index.
		pick := 0
		for i := 1; i < len(live); i++ {
			if live[i].run.Now() < live[pick].run.Now() ||
				(live[i].run.Now() == live[pick].run.Now() && live[i].idx < live[pick].idx) {
				pick = i
			}
		}
		lr := live[pick]
		if lr.run.Done() {
			if err := finish(pick); err != nil {
				return nil, err
			}
			continue
		}
		if err := lr.run.Step(); err != nil {
			res.Jobs[lr.idx].Err = err
			live = append(live[:pick], live[pick+1:]...)
			arb.Done(jobs[lr.idx].ID)
			if err := admit(); err != nil {
				return nil, err
			}
			continue
		}
		if lr.run.Done() {
			if err := finish(pick); err != nil {
				return nil, err
			}
		}
	}
	res.Log = arb.Log()
	return res, nil
}

// fleetJobs builds deterministic fleet jobs from submissions.
func fleetJobs(t *testing.T, subs []Submission) []FleetJob {
	t.Helper()
	jobs := make([]FleetJob, len(subs))
	for i, sub := range subs {
		sc, err := BuildScenario(sub)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = FleetJob{ID: fmt.Sprintf("job-%02d", i), Tenant: sub.Tenant, Scenario: sc}
	}
	return jobs
}

// TestSlackPolicyBeatsFIFOOnDeadlines is the arbiter differential: a
// pinned three-tenant fleet where slack arbitration meets a deadline the
// FIFO static-share baseline misses. Two slack-rich jobs want 1 GPU
// each; the deadline-critical job needs 8 GPUs for its first stage. The
// slack policy grants from actual free capacity (12 − 2 = 10 → full 8);
// FIFO caps at capacity/live = 4 and blows the deadline. Neither policy
// may exceed cluster capacity, checked by replaying both logs through
// the fleet oracle.
func TestSlackPolicyBeatsFIFOOnDeadlines(t *testing.T) {
	const capacity = 12
	subs := []Submission{
		{Tenant: "loose-a", Model: "resnet50", Stages: [][2]int{{4, 2}, {2, 2}},
			Seed: 601, MaxGPUs: 2, DeadlineFactor: 4},
		{Tenant: "loose-b", Model: "resnet50", Stages: [][2]int{{4, 2}, {2, 2}},
			Seed: 602, MaxGPUs: 2, DeadlineFactor: 4},
		{Tenant: "tight", Model: "resnet50", Stages: [][2]int{{8, 4}, {4, 4}, {2, 6}},
			Seed: 603, MaxGPUs: 8, DeadlineFactor: 1.5},
	}
	jobs := fleetJobs(t, subs)

	slack, err := RunFleet(capacity, PolicySlack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := RunFleet(capacity, PolicyFIFO, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*FleetResult{slack, fifo} {
		for _, j := range res.Jobs {
			if j.Err != nil {
				t.Fatalf("%s: %v", j.ID, j.Err)
			}
		}
	}

	// The differential: slack meets strictly more deadlines, and the
	// specific deadline it saves is the critical job's.
	if slack.Met() <= fifo.Met() {
		t.Fatalf("slack met %d deadlines, fifo met %d: no differential", slack.Met(), fifo.Met())
	}
	crit := 2
	if !slack.Jobs[crit].DeadlineMet {
		t.Fatalf("slack missed the critical deadline: jct %.1f > %.1f",
			slack.Jobs[crit].Artifacts.Result.JCT, slack.Jobs[crit].Artifacts.Deadline)
	}
	if fifo.Jobs[crit].DeadlineMet {
		t.Fatalf("fifo met the critical deadline: squeeze did not bind")
	}
	// The mechanism: slack grants the critical first stage in full, FIFO
	// caps it at the static share.
	sg, fg := slack.Jobs[crit].Artifacts.Grants, fifo.Jobs[crit].Artifacts.Grants
	if sg[0].Granted != 8 {
		t.Fatalf("slack stage-0 grant = %d, want 8", sg[0].Granted)
	}
	if fg[0].Granted != capacity/len(jobs) {
		t.Fatalf("fifo stage-0 grant = %d, want static share %d", fg[0].Granted, capacity/len(jobs))
	}
	// The slack-rich jobs still meet their deadlines under both policies:
	// feeding the critical job did not starve anyone past their slack.
	for _, i := range []int{0, 1} {
		if !slack.Jobs[i].DeadlineMet || !fifo.Jobs[i].DeadlineMet {
			t.Fatalf("slack-rich job %d missed its deadline", i)
		}
	}
	// Neither policy ever oversubscribes the cluster or loses a job.
	for name, res := range map[string]*FleetResult{"slack": slack, "fifo": fifo} {
		if vs := harness.CheckFleetInvariants(res.Log, capacity, len(jobs)); len(vs) != 0 {
			t.Fatalf("%s fleet oracle: %v", name, vs)
		}
	}
}

// TestRunFleetDeterministic: the fleet schedule is a pure function of
// (jobs, capacity, policy) — two runs produce identical digests and
// identical arbiter logs.
func TestRunFleetDeterministic(t *testing.T) {
	var subs []Submission
	for i := 0; i < 6; i++ {
		sub := smallSub(fmt.Sprintf("tenant-%d", i%3), uint64(700+i))
		subs = append(subs, sub)
	}
	jobs := fleetJobs(t, subs)
	a, err := RunFleet(5, PolicySlack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(5, PolicySlack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Err != nil || b.Jobs[i].Err != nil {
			t.Fatalf("job %d: %v / %v", i, a.Jobs[i].Err, b.Jobs[i].Err)
		}
		if a.Jobs[i].Digest != b.Jobs[i].Digest {
			t.Fatalf("job %d digests differ across identical fleet runs", i)
		}
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("log lengths differ: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("log event %d differs: %+v vs %+v", i, a.Log[i], b.Log[i])
		}
	}
}

// TestRunFleetInvariantsUnderContention: more jobs than the cluster can
// hold at once, under both policies — admission queues, every job still
// completes exactly once within capacity.
func TestRunFleetInvariantsUnderContention(t *testing.T) {
	const capacity = 4
	var subs []Submission
	for i := 0; i < 9; i++ {
		subs = append(subs, smallSub(fmt.Sprintf("tenant-%d", i%3), uint64(800+i)))
	}
	jobs := fleetJobs(t, subs)
	for _, pol := range []Policy{PolicySlack, PolicyFIFO} {
		res, err := RunFleet(capacity, pol, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Jobs {
			if j.Err != nil {
				t.Fatalf("%v %s: %v", pol, j.ID, j.Err)
			}
			if j.Artifacts == nil || j.Digest == 0 {
				t.Fatalf("%v %s: no artifacts", pol, j.ID)
			}
		}
		if vs := harness.CheckFleetInvariants(res.Log, capacity, len(jobs)); len(vs) != 0 {
			t.Fatalf("%v fleet oracle: %v", pol, vs)
		}
	}
}
