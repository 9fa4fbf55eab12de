package serve

import (
	"fmt"
	"slices"
	"sort"
	"sync"
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

// tenantState tracks one tenant's bounded FIFO queue and live count.
type tenantState struct {
	queue []*Experiment
	live  int
	done  int
}

// Registry is the admission-control surface: per-tenant bounded FIFO
// queues drained round-robin across tenants. It owns experiment
// identity (ids, lookup) and lifecycle counters; the Arbiter owns GPUs.
type Registry struct {
	mu      sync.Mutex
	quota   Quota
	maxLive int // global live bound
	exps    map[string]*Experiment
	tenants map[string]*tenantState
	// names lists every tenant in sorted order: the round-robin order.
	names []string
	// rrCursor is the tenant name the round-robin drain last admitted
	// from; the next pick starts strictly after it in sorted order.
	rrCursor string
	nextID   int
	live     int
}

// NewRegistry builds a registry. maxLive bounds globally-live
// experiments (the server sets it to the arbiter capacity so every live
// experiment can hold its minimum GPU).
func NewRegistry(quota Quota, maxLive int) *Registry {
	return &Registry{
		quota:   quota,
		maxLive: maxLive,
		exps:    map[string]*Experiment{},
		tenants: map[string]*tenantState{},
	}
}

// Submit validates nothing (callers validate submissions) and enqueues a
// new experiment for the tenant, returning it with a fresh id — or
// ErrBacklog when the tenant's queue is full. accepted, when non-nil,
// runs under the registry lock after the experiment exists but before
// any other caller can see it: the server records the fleet-log submit
// event there, so no admission can ever precede its submission.
func (r *Registry) Submit(sub Submission, accepted func(*Experiment)) (*Experiment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenantLocked(sub.Tenant)
	if len(t.queue) >= r.quota.MaxQueued {
		return nil, &ErrBacklog{
			Tenant: sub.Tenant, Queued: len(t.queue),
			// One coarse unit per queued experiment ahead: advisory.
			RetryAfterSeconds: 1 + len(t.queue),
		}
	}
	exp := newExperiment(fmt.Sprintf("exp-%04d", r.nextID), sub)
	r.nextID++
	r.exps[exp.ID] = exp
	t.queue = append(t.queue, exp)
	if accepted != nil {
		accepted(exp)
	}
	return exp, nil
}

// tenantLocked returns the named tenant's state, registering a new
// tenant in the sorted round-robin order. Callers hold mu.
func (r *Registry) tenantLocked(name string) *tenantState {
	t := r.tenants[name]
	if t == nil {
		t = &tenantState{}
		r.tenants[name] = t
		i, _ := slices.BinarySearch(r.names, name)
		r.names = slices.Insert(r.names, i, name)
	}
	return t
}

// Get looks an experiment up by id.
func (r *Registry) Get(id string) (*Experiment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.exps[id]
	return e, ok
}

// adopt registers a recovered experiment (restart path) as live without
// passing through a queue. The id counter advances past recovered ids so
// new submissions never collide.
func (r *Registry) adopt(exp *Experiment, live bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exps[exp.ID] = exp
	var n int
	if _, err := fmt.Sscanf(exp.ID, "exp-%d", &n); err == nil && n >= r.nextID {
		r.nextID = n + 1
	}
	t := r.tenantLocked(exp.Sub.Tenant)
	if live {
		t.live++
		r.live++
	} else {
		t.done++
	}
}

// NextRunnable picks the next experiment to admit: round-robin across
// tenants in sorted-name order starting after the previous pick, FIFO
// within a tenant, honoring the per-tenant and global live bounds. It
// returns nil when nothing is runnable. The picked experiment is counted
// live immediately so concurrent pumps cannot double-admit.
func (r *Registry) NextRunnable() *Experiment {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live >= r.maxLive {
		return nil
	}
	names := r.names
	// Rotate so the scan starts after the round-robin cursor.
	start, found := slices.BinarySearch(names, r.rrCursor)
	if found {
		start++
	}
	if start == len(names) {
		start = 0
	}
	for i := 0; i < len(names); i++ {
		name := names[(start+i)%len(names)]
		t := r.tenants[name]
		if len(t.queue) == 0 || t.live >= r.quota.MaxLive {
			continue
		}
		exp := t.queue[0]
		t.queue = t.queue[1:]
		t.live++
		r.live++
		r.rrCursor = name
		return exp
	}
	return nil
}

// requeueFront undoes a NextRunnable pick: the experiment returns to the
// head of its tenant queue (FIFO preserved) and its live slots are
// released. Used when the pump loses the free-GPU race to a concurrent
// grant between picking and admitting.
func (r *Registry) requeueFront(exp *Experiment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[exp.Sub.Tenant]
	if t == nil {
		return
	}
	t.queue = append([]*Experiment{exp}, t.queue...)
	t.live--
	r.live--
}

// All returns every known experiment sorted by id.
func (r *Registry) All() []*Experiment {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.exps))
	for id := range r.exps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Experiment, len(ids))
	for i, id := range ids {
		out[i] = r.exps[id]
	}
	return out
}

// Complete releases an experiment's live slot.
func (r *Registry) Complete(exp *Experiment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.tenants[exp.Sub.Tenant]; t != nil {
		t.live--
		t.done++
	}
	r.live--
}

// QueuePos returns exp's 1-based position in its tenant queue (0 when
// not queued).
func (r *Registry) QueuePos(exp *Experiment) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[exp.Sub.Tenant]
	if t == nil {
		return 0
	}
	for i, q := range t.queue {
		if q == exp {
			return i + 1
		}
	}
	return 0
}

// TenantStats reports one tenant's queue and lifecycle counters.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Queued    int    `json:"queued"`
	Live      int    `json:"live"`
	Completed int    `json:"completed"`
	MaxQueued int    `json:"max_queued"`
	MaxLive   int    `json:"max_live"`
}

// Tenant returns one tenant's stats (zero-valued for unknown tenants).
func (r *Registry) Tenant(name string) TenantStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := TenantStats{Tenant: name, MaxQueued: r.quota.MaxQueued, MaxLive: r.quota.MaxLive}
	if t := r.tenants[name]; t != nil {
		s.Queued, s.Live, s.Completed = len(t.queue), t.live, t.done
	}
	return s
}

// Stats reports fleet-wide registry counters.
func (r *Registry) Stats() (live, queued, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tenants {
		queued += len(t.queue)
	}
	return r.live, queued, len(r.exps)
}
