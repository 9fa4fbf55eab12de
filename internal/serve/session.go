package serve

import (
	"sync"

	"repro/internal/harness"
)

// ExpState is an experiment's lifecycle state.
type ExpState int

const (
	// StateQueued: accepted, waiting in its tenant queue.
	StateQueued ExpState = iota
	// StateRunning: admitted and executing on its virtual clock.
	StateRunning
	// StateDone: completed with a result and digest.
	StateDone
	// StateFailed: aborted with an error.
	StateFailed
)

// String renders the state for JSON.
func (s ExpState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Event is one entry in an experiment's streamed event feed: lifecycle
// transitions, the plan, stage boundaries and arbiter grants. Virtual
// times are the experiment's own seeded clock; the feed carries no wall
// times, so a replayed run streams the identical feed.
type Event struct {
	Seq     int     `json:"seq"`
	Type    string  `json:"type"` // queued|admitted|plan|grant|stage|done|failed
	VTime   float64 `json:"vtime,omitempty"`
	Stage   int     `json:"stage,omitempty"`
	Want    int     `json:"want,omitempty"`
	Granted int     `json:"granted,omitempty"`
	Alloc   []int   `json:"alloc,omitempty"`
	Planned *bool   `json:"planned,omitempty"`
	JCT     float64 `json:"jct,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Digest  string  `json:"digest,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Experiment is one submitted experiment's full service-side record:
// identity, live progress mirror, event feed, and final outcome. The
// mutex guards everything; the session goroutine writes, HTTP handlers
// read. The feed is append-only and a published event is never changed,
// so a reader may keep a slice of it past the lock. Waiters block on the
// notify channel, which the first waiter after a publish makes and the
// next publish closes.
type Experiment struct {
	ID  string
	Sub Submission

	mu     sync.Mutex
	state  ExpState
	notify chan struct{} // nil while nobody waits
	events []Event

	// Live progress mirror, updated by the session at stage boundaries
	// and every progress interval.
	stage    int
	vnow     float64
	cost     float64
	deadline float64
	planned  bool
	predJCT  float64
	predCost float64
	grants   []harness.GrantDecision

	// Outcome.
	digest  string
	jct     float64
	bestTrl int
	errMsg  string

	// Wall-clock ops surface (unix seconds; zero until reached). These
	// never feed the run or its digest.
	submittedAt float64
	startedAt   float64
	finishedAt  float64
}

// newExperiment builds a queued experiment record.
func newExperiment(id string, sub Submission) *Experiment {
	// The feed holds at most its queued, admitted, plan and done events
	// and a grant and a stage event per stage.
	e := &Experiment{ID: id, Sub: sub, state: StateQueued, events: make([]Event, 0, 4+2*len(sub.Stages))}
	e.submittedAt = wallNow()
	e.publishLocked(Event{Type: "queued"})
	return e
}

// publishLocked appends an event and wakes waiters, if any. Callers hold
// mu or have exclusive access (constructor).
func (e *Experiment) publishLocked(ev Event) {
	ev.Seq = len(e.events)
	e.events = append(e.events, ev)
	if e.notify != nil {
		close(e.notify)
		e.notify = nil
	}
}

// waitLocked returns the channel the next publish closes, making it for
// the first waiter. Callers hold mu.
func (e *Experiment) waitLocked() <-chan struct{} {
	if e.notify == nil {
		e.notify = make(chan struct{})
	}
	return e.notify
}

// finalLocked reports whether the feed is finished: no more events will
// come. Callers hold mu.
func (e *Experiment) finalLocked() bool {
	return e.state == StateDone || e.state == StateFailed
}

// publish appends an event under the lock.
func (e *Experiment) publish(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publishLocked(ev)
}

// feed returns every event published from index i on, as a slice capped
// at its length that the caller reads without the lock, and whether the
// feed is finished (no more events will come). A feed that is not
// finished also returns the channel the next publish closes.
func (e *Experiment) feed(i int) (evs []Event, wake <-chan struct{}, final bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.events); i < n {
		evs = e.events[i:n:n]
	}
	if e.finalLocked() {
		return evs, nil, true
	}
	return evs, e.waitLocked(), false
}

// published returns the number of events in the feed so far.
func (e *Experiment) published() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.events)
}

// markAdmitted transitions to running. It precedes plan construction so
// the event feed shows the admission before the first stage's grant
// (which fires inside StartScenario).
func (e *Experiment) markAdmitted() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = StateRunning
	e.startedAt = wallNow()
	e.publishLocked(Event{Type: "admitted"})
}

// notePlan records the started run's plan and prediction.
func (e *Experiment) notePlan(r *harness.Running) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deadline = r.Deadline()
	e.planned = r.Planned()
	if e.planned {
		est := r.Estimate()
		e.predJCT, e.predCost = est.JCT, est.Cost
	}
	planned := e.planned
	e.publishLocked(Event{Type: "plan", Alloc: r.Plan().Alloc, Planned: &planned})
}

// noteGrant records one arbiter grant in the mirror and the feed.
func (e *Experiment) noteGrant(d harness.GrantDecision) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.grants = append(e.grants, d)
	e.publishLocked(Event{
		Type: "grant", VTime: d.At, Stage: d.Stage, Want: d.Want, Granted: d.Granted,
	})
}

// progress refreshes the live mirror and emits a stage event when the
// stage index advanced.
func (e *Experiment) progress(stage int, vnow, cost float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	adv := stage > e.stage
	e.stage, e.vnow, e.cost = stage, vnow, cost
	if adv {
		e.publishLocked(Event{Type: "stage", VTime: vnow, Stage: stage})
	}
}

// complete transitions to done with the run's outcome.
func (e *Experiment) complete(a *harness.Artifacts, digest harness.Digest) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = StateDone
	e.finishedAt = wallNow()
	e.vnow, e.cost = a.Result.JCT, a.Result.Cost
	e.jct, e.bestTrl = a.Result.JCT, int(a.Result.BestTrial)
	e.digest = DigestString(digest)
	e.grants = append([]harness.GrantDecision(nil), a.Grants...)
	e.publishLocked(Event{
		Type: "done", VTime: a.Result.JCT,
		JCT: a.Result.JCT, Cost: a.Result.Cost, Digest: e.digest,
	})
}

// fail transitions to failed.
func (e *Experiment) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = StateFailed
	e.finishedAt = wallNow()
	e.errMsg = err.Error()
	e.publishLocked(Event{Type: "failed", Error: e.errMsg})
}

// State returns the current lifecycle state.
func (e *Experiment) State() ExpState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// Wait blocks until the experiment reaches a final state.
func (e *Experiment) Wait() {
	for {
		e.mu.Lock()
		if e.finalLocked() {
			e.mu.Unlock()
			return
		}
		ch := e.waitLocked()
		e.mu.Unlock()
		<-ch
	}
}

// newRecoveredDone rebuilds a completed experiment from its replay tuple
// (restart path: the run finished in a previous process generation).
func newRecoveredDone(t ReplayTuple) *Experiment {
	e := &Experiment{ID: t.ID, Sub: t.Submission, state: StateDone}
	e.finishedAt = wallNow()
	e.vnow, e.jct, e.cost = t.JCT, t.JCT, t.Cost
	e.digest = t.Digest
	e.grants = append([]harness.GrantDecision(nil), t.Grants...)
	e.publishLocked(Event{Type: "queued"})
	e.publishLocked(Event{
		Type: "done", VTime: t.JCT, JCT: t.JCT, Cost: t.Cost, Digest: t.Digest,
	})
	return e
}

// Tuple returns the completed experiment's replay tuple and whether it
// is available (done runs only).
func (e *Experiment) Tuple() (ReplayTuple, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateDone {
		return ReplayTuple{}, false
	}
	return ReplayTuple{
		ID:         e.ID,
		Submission: e.Sub,
		Grants:     append([]harness.GrantDecision(nil), e.grants...),
		Digest:     e.digest,
		JCT:        e.jct,
		Cost:       e.cost,
	}, true
}

// Status is the JSON body of GET /v1/experiments/{id}.
type Status struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Name     string `json:"name,omitempty"`
	State    string `json:"state"`
	QueuePos int    `json:"queue_pos,omitempty"`

	// Plan-time prediction.
	Deadline      float64 `json:"deadline,omitempty"`
	Planned       bool    `json:"planned,omitempty"`
	PredictedJCT  float64 `json:"predicted_jct,omitempty"`
	PredictedCost float64 `json:"predicted_cost,omitempty"`

	// Live progress (virtual time).
	Stage     int     `json:"stage"`
	VNow      float64 `json:"vnow"`
	CostSoFar float64 `json:"cost_so_far"`
	Grants    int     `json:"grants"`

	// Outcome.
	JCT       float64 `json:"jct,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	BestTrial int     `json:"best_trial,omitempty"`
	Digest    string  `json:"digest,omitempty"`
	Error     string  `json:"error,omitempty"`

	// Wall-clock ops surface (unix seconds).
	SubmittedAt float64 `json:"submitted_at,omitempty"`
	StartedAt   float64 `json:"started_at,omitempty"`
	FinishedAt  float64 `json:"finished_at,omitempty"`
}

// StatusIn snapshots the experiment for the status endpoint; reg
// supplies the queue position for queued experiments.
func (e *Experiment) StatusIn(reg *Registry) Status {
	e.mu.Lock()
	st := Status{
		ID: e.ID, Tenant: e.Sub.Tenant, Name: e.Sub.Name, State: e.state.String(),
		Deadline: e.deadline, Planned: e.planned,
		PredictedJCT: e.predJCT, PredictedCost: e.predCost,
		Stage: e.stage, VNow: e.vnow, CostSoFar: e.cost, Grants: len(e.grants),
		JCT: e.jct, Cost: e.cost, BestTrial: e.bestTrl, Digest: e.digest, Error: e.errMsg,
		SubmittedAt: e.submittedAt, StartedAt: e.startedAt, FinishedAt: e.finishedAt,
	}
	queued := e.state == StateQueued
	e.mu.Unlock()
	if queued && reg != nil {
		st.QueuePos = reg.QueuePos(e)
	}
	return st
}
