package serve

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/harness"
)

// Policy selects the arbiter's stage-boundary reallocation rule.
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

// hold is one live experiment's arbiter state: its current GPU hold and
// the latest request context (want, slack) used to rank criticality.
type hold struct {
	tenant string
	gpus   int
	want   int
	slack  float64
	asked  bool // has made at least one request (slack is meaningful)
	order  int  // admission sequence, FIFO tiebreak
}

// Arbiter is the cross-experiment resource ledger: a fixed GPU capacity
// shared by every live experiment. Admission reserves 1 GPU (the
// minimum viable stage grant); every stage boundary exchanges the
// experiment's hold for a fresh grant; completion releases it. The
// capacity invariant — Σ holds ≤ capacity — holds after every operation,
// and every exchange grants at least 1 GPU, so arbitration never blocks:
// a live experiment always makes progress through queued trial waves.
//
// Every action is appended to an event log (plain harness data) that the
// fleet-fairness oracle replays.
type Arbiter struct {
	mu       sync.Mutex
	capacity int
	policy   Policy
	holds    map[string]*hold
	admits   int
	// log holds the event log in chunks of logChunk events and logged
	// counts its events. An append never copies what is already logged,
	// so a long log does not move while a.mu is held.
	log    [][]harness.FleetEvent
	logged int
}

// logChunk is the number of events one chunk of the arbiter's log
// holds: as many as fill a 32 KiB allocation.
const logChunk = 32 << 10 / int(unsafe.Sizeof(harness.FleetEvent{}))

// NewArbiter builds an arbiter for a cluster of capacity GPUs.
func NewArbiter(capacity int, policy Policy) (*Arbiter, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("serve: arbiter capacity %d, want >= 1", capacity)
	}
	return &Arbiter{capacity: capacity, policy: policy, holds: map[string]*hold{}}, nil
}

// Capacity returns the shared cluster size in GPUs.
func (a *Arbiter) Capacity() int { return a.capacity }

// record appends one event to the log with the next global sequence,
// starting a new chunk when the last one is full.
func (a *Arbiter) record(e harness.FleetEvent) {
	e.Seq = a.logged
	if a.logged%logChunk == 0 {
		a.log = append(a.log, make([]harness.FleetEvent, 0, logChunk))
	}
	last := &a.log[len(a.log)-1]
	*last = append(*last, e)
	a.logged++
}

// Log returns a copy of the arbiter's event log, in one slice (nil when
// nothing is logged).
func (a *Arbiter) Log() []harness.FleetEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.logged == 0 {
		return nil
	}
	out := make([]harness.FleetEvent, 0, a.logged)
	for _, c := range a.log {
		out = append(out, c...)
	}
	return out
}

// Note records a submission-side lifecycle event ("submit", "reject")
// into the shared log so the fairness oracle sees the full queue story.
func (a *Arbiter) Note(kind, exp, tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.record(harness.FleetEvent{Kind: kind, Exp: exp, Tenant: tenant})
}

// InUse returns the sum of live holds.
func (a *Arbiter) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUseLocked()
}

func (a *Arbiter) inUseLocked() int {
	sum := 0
	for _, h := range a.holds {
		sum += h.gpus
	}
	return sum
}

// Free returns the unheld capacity.
func (a *Arbiter) Free() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity - a.inUseLocked()
}

// Admit makes exp live, reserving the 1-GPU minimum its first stage is
// guaranteed. It fails when no GPU is free — admission control must gate
// on Free() — or on a duplicate admission.
func (a *Arbiter) Admit(exp, tenant string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.holds[exp]; dup {
		return fmt.Errorf("serve: experiment %s already admitted", exp)
	}
	if a.capacity-a.inUseLocked() < 1 {
		return fmt.Errorf("serve: no free GPU to admit %s (%d/%d held)", exp, a.inUseLocked(), a.capacity)
	}
	a.holds[exp] = &hold{tenant: tenant, gpus: 1, order: a.admits}
	a.admits++
	a.record(harness.FleetEvent{Kind: "admit", Exp: exp, Tenant: tenant, Held: 1})
	return nil
}

// Exchange is the stage-boundary arbitration: exp releases its current
// hold and requests want GPUs with the given deadline slack (deadline −
// now − predicted remaining; smaller or negative means more critical).
// The release and regrant are atomic, and the requester's own released
// hold is at least 1, so the grant is always at least 1 GPU.
func (a *Arbiter) Exchange(exp string, stage, want int, slack float64) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	h, ok := a.holds[exp]
	if !ok {
		return 0, fmt.Errorf("serve: exchange for non-live experiment %s", exp)
	}
	if want < 1 {
		want = 1
	}
	h.want, h.slack, h.asked = want, slack, true

	free := a.capacity
	for id, o := range a.holds {
		if id != exp {
			free -= o.gpus
		}
	}
	grant := want
	if grant > free {
		grant = free
	}
	switch a.policy {
	case PolicyFIFO:
		// Naive static split: at most capacity/live each, slack-blind.
		share := a.capacity / len(a.holds)
		if share < 1 {
			share = 1
		}
		if grant > share {
			grant = share
		}
	default:
		// Slack policy: reserve the unmet demand of every strictly more
		// critical live experiment, then serve from what remains. A
		// deadline-critical requester sees few or no reservations and
		// takes everything it needs; a slack-rich one is squeezed down to
		// its fair remainder (never below 1).
		reserve := 0
		for id, o := range a.holds {
			if id == exp || !o.asked {
				continue
			}
			if o.slack < slack && o.want > o.gpus {
				reserve += o.want - o.gpus
			}
		}
		if avail := free - reserve; grant > avail {
			grant = avail
		}
	}
	if grant < 1 {
		grant = 1
	}
	h.gpus = grant
	a.record(harness.FleetEvent{
		Kind: "grant", Exp: exp, Tenant: h.tenant,
		Stage: stage, Want: want, Granted: grant, Held: grant,
	})
	if used := a.inUseLocked(); used > a.capacity {
		// Unreachable by construction; fail loudly rather than
		// oversubscribe the cluster silently.
		panic(fmt.Sprintf("serve: arbiter oversubscribed: %d/%d GPUs after granting %s", used, a.capacity, exp))
	}
	return grant, nil
}

// Done releases exp's hold and removes it from the live set.
func (a *Arbiter) Done(exp string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	h, ok := a.holds[exp]
	if !ok {
		return
	}
	delete(a.holds, exp)
	a.record(harness.FleetEvent{Kind: "done", Exp: exp, Tenant: h.tenant})
}
