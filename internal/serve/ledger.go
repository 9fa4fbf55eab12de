package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/harness"
)

// Quota bounds one tenant's footprint on the service.
type Quota struct {
	// MaxQueued bounds the tenant's submission queue; overflow is
	// rejected with 429 + Retry-After.
	MaxQueued int
	// MaxLive bounds the tenant's concurrently running experiments.
	MaxLive int
	// MaxGPUs caps a single submission's peak GPU request.
	MaxGPUs int
}

// DefaultQuota is the per-tenant default.
func DefaultQuota() Quota { return Quota{MaxQueued: 16, MaxLive: 4, MaxGPUs: 32} }

// ErrBacklog reports a full tenant queue; RetryAfterSeconds is the 429
// Retry-After hint (a coarse drain estimate, advisory only).
type ErrBacklog struct {
	Tenant            string
	Queued            int
	RetryAfterSeconds int
}

func (e *ErrBacklog) Error() string {
	return fmt.Sprintf("serve: tenant %s queue full (%d queued)", e.Tenant, e.Queued)
}

// errClosed refuses work once the server is shutting down.
var errClosed = errors.New("serve: server shutting down")

// Policy selects the stage-boundary reallocation rule.
type Policy int

const (
	// PolicySlack is HyperSched-style deadline-slack arbitration: before
	// serving a request, headroom is reserved for every live experiment
	// that is more deadline-critical (smaller slack) and under-allocated,
	// so slack-rich jobs are squeezed toward deadline-critical ones.
	PolicySlack Policy = iota
	// PolicyFIFO is the naive baseline: every live experiment gets at
	// most an equal static share of the cluster, in admission order,
	// blind to deadlines. The differential tests hold PolicySlack to
	// meeting strictly more deadlines than this.
	PolicyFIFO
)

// String renders the policy for stats and flags.
func (p Policy) String() string {
	switch p {
	case PolicySlack:
		return "slack"
	case PolicyFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "slack":
		return PolicySlack, nil
	case "fifo":
		return PolicyFIFO, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want slack or fifo)", s)
	}
}

// tenantState tracks one tenant's bounded FIFO queue and lifecycle
// counts.
type tenantState struct {
	queue []*Experiment
	live  int
	done  int
}

// hold is one live experiment's GPU hold and the latest request context
// (want, slack) used to rank criticality.
type hold struct {
	tenant string
	gpus   int
	want   int
	slack  float64
	asked  bool // has made at least one request (slack is meaningful)
}

// ledger is the control plane's one admission record: per-tenant
// bounded FIFO queues drained round-robin across tenants, the
// experiment index, the GPU holds of every live experiment, the fleet
// event log and the closed flag, all under one mutex. Each decision is
// one critical section: a pick happens only while a GPU is free and
// takes the 1-GPU hold its first stage is guaranteed, so no pick is
// ever undone; every stage boundary exchanges the experiment's hold for
// a fresh grant; release gives the hold back. Σ holds ≤ capacity after
// every operation and every grant is at least 1 GPU, so arbitration
// never blocks, and since every live experiment holds a GPU, at most
// capacity experiments are live.
//
// Every action is appended to the event log (plain harness data) that
// the fleet-fairness oracle replays.
type ledger struct {
	capacity int
	policy   Policy
	quota    Quota
	// drivers counts admissions not yet released. An admission adds to it
	// under mu, and only while the ledger is open, so once close has set
	// the flag its Wait sees every driver that will ever run.
	drivers sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	exps    map[string]*Experiment
	tenants map[string]*tenantState
	// names lists every tenant in sorted order: the round-robin order.
	names []string
	// rrCursor is the tenant name the round-robin drain last admitted
	// from; the next pick starts strictly after it in sorted order.
	rrCursor string
	nextID   int
	rejects  int
	holds    map[string]*hold
	held     int // Σ holds
	// log holds the event log in chunks of logChunk events and logged
	// counts its events. An append never copies what is already logged,
	// so a long log does not move while mu is held.
	log    [][]harness.FleetEvent
	logged int
}

// logChunk is the number of events one chunk of the ledger's log holds:
// as many as fill a 32 KiB allocation.
const logChunk = 32 << 10 / int(unsafe.Sizeof(harness.FleetEvent{}))

// newLedger builds the ledger of a cluster of capacity GPUs.
func newLedger(capacity int, policy Policy, quota Quota) (*ledger, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("serve: capacity %d, want >= 1", capacity)
	}
	return &ledger{
		capacity: capacity,
		policy:   policy,
		quota:    quota,
		exps:     map[string]*Experiment{},
		tenants:  map[string]*tenantState{},
		holds:    map[string]*hold{},
	}, nil
}

// record appends one event to the log with the next global sequence,
// starting a new chunk when the last one is full. Callers hold mu.
func (l *ledger) record(e harness.FleetEvent) {
	e.Seq = l.logged
	if l.logged%logChunk == 0 {
		l.log = append(l.log, make([]harness.FleetEvent, 0, logChunk))
	}
	last := &l.log[len(l.log)-1]
	*last = append(*last, e)
	l.logged++
}

// fleetLog returns a copy of the event log, in one slice (nil when
// nothing is logged).
func (l *ledger) fleetLog() []harness.FleetEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.logged == 0 {
		return nil
	}
	out := make([]harness.FleetEvent, 0, l.logged)
	for _, c := range l.log {
		out = append(out, c...)
	}
	return out
}

// tenantLocked returns the named tenant's state, registering a new
// tenant in the sorted round-robin order. Callers hold mu.
func (l *ledger) tenantLocked(name string) *tenantState {
	t := l.tenants[name]
	if t == nil {
		t = &tenantState{}
		l.tenants[name] = t
		i, _ := slices.BinarySearch(l.names, name)
		l.names = slices.Insert(l.names, i, name)
	}
	return t
}

// submit enqueues a new experiment for the tenant under a fresh id and
// logs its submission; it returns ErrBacklog (logging a reject) when the
// tenant's queue is full, and errClosed once the ledger is closed.
// persist, when non-nil, runs before the experiment is indexed or
// queued, so nothing can see or admit an experiment whose persist
// failed; its error fails the submission and spends no id.
func (l *ledger) submit(sub Submission, persist func(*Experiment) error) (*Experiment, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errClosed
	}
	t := l.tenantLocked(sub.Tenant)
	if len(t.queue) >= l.quota.MaxQueued {
		l.rejects++
		l.record(harness.FleetEvent{Kind: "reject", Exp: fmt.Sprintf("reject-%04d", l.rejects), Tenant: sub.Tenant})
		return nil, &ErrBacklog{
			Tenant: sub.Tenant, Queued: len(t.queue),
			// One coarse unit per queued experiment ahead: advisory.
			RetryAfterSeconds: 1 + len(t.queue),
		}
	}
	exp := newExperiment(fmt.Sprintf("exp-%04d", l.nextID), sub)
	if persist != nil {
		if err := persist(exp); err != nil {
			return nil, err
		}
	}
	l.nextID++
	l.exps[exp.ID] = exp
	t.queue = append(t.queue, exp)
	l.record(harness.FleetEvent{Kind: "submit", Exp: exp.ID, Tenant: sub.Tenant})
	return exp, nil
}

// admit picks the next experiment to run — round-robin across tenants
// in sorted-name order starting after the previous pick, FIFO within a
// tenant, under the tenant's live bound — and makes it live with its
// 1-GPU hold. It returns nil when the ledger is closed, no GPU is free
// or nothing is runnable. The caller must start the experiment's driver,
// which ends with release.
func (l *ledger) admit() *Experiment {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.held >= l.capacity {
		return nil
	}
	names := l.names
	start, found := slices.BinarySearch(names, l.rrCursor)
	if found {
		start++
	}
	for i := range names {
		name := names[(start+i)%len(names)]
		t := l.tenants[name]
		if len(t.queue) == 0 || t.live >= l.quota.MaxLive {
			continue
		}
		exp := t.queue[0]
		t.queue = t.queue[1:]
		l.rrCursor = name
		l.admitLocked(t, exp)
		return exp
	}
	return nil
}

// admitLocked makes exp live with a 1-GPU hold. Callers hold mu and have
// checked that the ledger is open and a GPU is free.
func (l *ledger) admitLocked(t *tenantState, exp *Experiment) {
	t.live++
	l.holds[exp.ID] = &hold{tenant: exp.Sub.Tenant, gpus: 1}
	l.held++
	l.record(harness.FleetEvent{Kind: "admit", Exp: exp.ID, Tenant: exp.Sub.Tenant, Held: 1})
	l.drivers.Add(1)
}

// exchange is the stage-boundary arbitration: exp releases its current
// hold and requests want GPUs with the given deadline slack (deadline −
// now − predicted remaining; smaller or negative means more critical).
// The release and regrant are atomic, and the requester's own released
// hold is at least 1, so the grant is always at least 1 GPU.
func (l *ledger) exchange(exp string, stage, want int, slack float64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.holds[exp]
	if !ok {
		return 0, fmt.Errorf("serve: exchange for non-live experiment %s", exp)
	}
	if want < 1 {
		want = 1
	}
	h.want, h.slack, h.asked = want, slack, true

	free := l.capacity - l.held + h.gpus
	grant := min(want, free)
	switch l.policy {
	case PolicyFIFO:
		// Naive static split: at most capacity/live each, slack-blind.
		grant = min(grant, max(l.capacity/len(l.holds), 1))
	default:
		// Slack policy: reserve the unmet demand of every strictly more
		// critical live experiment, then serve from what remains. A
		// deadline-critical requester sees few or no reservations and
		// takes everything it needs; a slack-rich one is squeezed down to
		// its fair remainder (never below 1).
		reserve := 0
		for id, o := range l.holds {
			if id != exp && o.asked && o.slack < slack && o.want > o.gpus {
				reserve += o.want - o.gpus
			}
		}
		grant = min(grant, free-reserve)
	}
	grant = max(grant, 1)
	l.held += grant - h.gpus
	h.gpus = grant
	l.record(harness.FleetEvent{
		Kind: "grant", Exp: exp, Tenant: h.tenant,
		Stage: stage, Want: want, Granted: grant, Held: grant,
	})
	if l.held > l.capacity {
		// Unreachable by construction; fail loudly rather than
		// oversubscribe the cluster silently.
		panic(fmt.Sprintf("serve: cluster oversubscribed: %d/%d GPUs after granting %s", l.held, l.capacity, exp))
	}
	return grant, nil
}

// release ends exp's admission: its hold is freed, its tenant's live
// slot becomes a completion, and its driver is counted out. Releasing
// an experiment that is not live does nothing.
func (l *ledger) release(exp *Experiment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.holds[exp.ID]
	if !ok {
		return
	}
	delete(l.holds, exp.ID)
	l.held -= h.gpus
	t := l.tenants[exp.Sub.Tenant]
	t.live--
	t.done++
	l.record(harness.FleetEvent{Kind: "done", Exp: exp.ID, Tenant: h.tenant})
	l.drivers.Done()
}

// close stops all admission and waits until every admitted experiment
// is released. Submissions after it get errClosed.
func (l *ledger) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.drivers.Wait()
}

// indexLocked registers a recovered experiment, advancing the id
// counter past its id so new submissions never collide with it, and
// returns its tenant. Callers hold mu.
func (l *ledger) indexLocked(exp *Experiment) *tenantState {
	l.exps[exp.ID] = exp
	var n int
	if _, err := fmt.Sscanf(exp.ID, "exp-%d", &n); err == nil && n >= l.nextID {
		l.nextID = n + 1
	}
	return l.tenantLocked(exp.Sub.Tenant)
}

// adopt registers a recovered experiment that finished (done or failed)
// in an earlier process generation.
func (l *ledger) adopt(exp *Experiment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.indexLocked(exp).done++
}

// requeue puts a recovered experiment that was accepted but never
// started back at the tail of its tenant queue and logs its submission.
func (l *ledger) requeue(exp *Experiment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.indexLocked(exp)
	t.queue = append(t.queue, exp)
	l.record(harness.FleetEvent{Kind: "submit", Exp: exp.ID, Tenant: exp.Sub.Tenant})
}

// resume registers a recovered unfinished experiment, logs its
// submission and makes it live at once, outside the queues. It changes
// nothing and fails when the ledger is closed or no GPU is free.
func (l *ledger) resume(exp *Experiment) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return errClosed
	case l.held >= l.capacity:
		return fmt.Errorf("serve: no free GPU to resume %s (%d/%d held)", exp.ID, l.held, l.capacity)
	}
	t := l.indexLocked(exp)
	l.record(harness.FleetEvent{Kind: "submit", Exp: exp.ID, Tenant: exp.Sub.Tenant})
	l.admitLocked(t, exp)
	return nil
}

// get looks an experiment up by id.
func (l *ledger) get(id string) (*Experiment, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.exps[id]
	return e, ok
}

// all returns every known experiment sorted by id.
func (l *ledger) all() []*Experiment {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Experiment, 0, len(l.exps))
	for _, e := range l.exps {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// queuePos returns exp's 1-based position in its tenant queue (0 when
// not queued).
func (l *ledger) queuePos(exp *Experiment) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.tenants[exp.Sub.Tenant]; t != nil {
		if i := slices.Index(t.queue, exp); i >= 0 {
			return i + 1
		}
	}
	return 0
}

// TenantStats is the JSON body of GET /v1/tenants/{tenant}: one
// tenant's queue and lifecycle counters.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Queued    int    `json:"queued"`
	Live      int    `json:"live"`
	Completed int    `json:"completed"`
	MaxQueued int    `json:"max_queued"`
	MaxLive   int    `json:"max_live"`
}

// tenant returns one tenant's stats (zero-valued for unknown tenants).
func (l *ledger) tenant(name string) TenantStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := TenantStats{Tenant: name, MaxQueued: l.quota.MaxQueued, MaxLive: l.quota.MaxLive}
	if t := l.tenants[name]; t != nil {
		s.Queued, s.Live, s.Completed = len(t.queue), t.live, t.done
	}
	return s
}

// FleetStats is the JSON body of GET /v1/stats.
type FleetStats struct {
	Capacity int    `json:"capacity"`
	Policy   string `json:"policy"`
	InUse    int    `json:"in_use"`
	Free     int    `json:"free"`
	Live     int    `json:"live"`
	Queued   int    `json:"queued"`
	Total    int    `json:"total"`
}

// stats reports the fleet-wide counters, all read in one critical
// section, so InUse + Free = Capacity and Live ≤ Capacity in every
// snapshot.
func (l *ledger) stats() FleetStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	queued := 0
	for _, t := range l.tenants {
		queued += len(t.queue)
	}
	return FleetStats{
		Capacity: l.capacity,
		Policy:   l.policy.String(),
		InUse:    l.held,
		Free:     l.capacity - l.held,
		Live:     len(l.holds),
		Queued:   queued,
		Total:    len(l.exps),
	}
}
