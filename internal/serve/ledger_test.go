package serve

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/harness"
)

func regSub(tenant string) Submission {
	return Submission{
		Tenant: tenant, Model: "resnet50",
		Stages: [][2]int{{4, 2}, {2, 2}},
		Seed:   1, MaxGPUs: 4, DeadlineFactor: 2,
	}
}

// mustLedger builds a ledger or fails the test.
func mustLedger(t *testing.T, capacity int, policy Policy, quota Quota) *ledger {
	t.Helper()
	l, err := newLedger(capacity, policy, quota)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustSubmit(t *testing.T, l *ledger, tenant string) *Experiment {
	t.Helper()
	exp, err := l.submit(regSub(tenant), nil)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// admitOne submits one experiment for tenant and admits it, failing the
// test unless the ledger picks exactly that experiment.
func admitOne(t *testing.T, l *ledger, tenant string) *Experiment {
	t.Helper()
	exp := mustSubmit(t, l, tenant)
	if got := l.admit(); got != exp {
		t.Fatalf("admit picked %v, want %s", got, exp.ID)
	}
	return exp
}

func TestArbiterAdmitExchangeDone(t *testing.T) {
	l := mustLedger(t, 8, PolicySlack, DefaultQuota())
	if _, err := newLedger(0, PolicySlack, DefaultQuota()); err == nil {
		t.Error("capacity 0 accepted")
	}
	if got := l.admit(); got != nil {
		t.Fatalf("an empty ledger admitted %s", got.ID)
	}
	a := admitOne(t, l, "acme")
	if got := l.admit(); got != nil {
		t.Errorf("%s admitted twice", got.ID)
	}
	if got := l.stats().InUse; got != 1 {
		t.Fatalf("InUse after admit = %d", got)
	}
	g, err := l.exchange(a.ID, 0, 6, 10)
	if err != nil || g != 6 {
		t.Fatalf("Exchange = %d, %v", g, err)
	}
	if st := l.stats(); st.InUse != 6 || st.Free != 2 {
		t.Fatalf("InUse/Free = %d/%d", st.InUse, st.Free)
	}
	if _, err := l.exchange("ghost", 0, 1, 0); err == nil {
		t.Error("exchange for non-live experiment accepted")
	}
	l.release(a)
	if st := l.stats(); st.InUse != 0 || st.Live != 0 {
		t.Fatalf("after release: InUse=%d Live=%d", st.InUse, st.Live)
	}
	l.release(a) // idempotent
	if ts := l.tenant("acme"); ts.Completed != 1 || ts.Live != 0 {
		t.Fatalf("tenant after release = %+v", ts)
	}
}

// TestArbiterNeverBlocksAndNeverOversubscribes: a sweep of random-ish
// exchange patterns keeps Σ holds ≤ capacity with every grant ≥ 1.
func TestArbiterNeverBlocksAndNeverOversubscribes(t *testing.T) {
	const capacity = 12
	for _, policy := range []Policy{PolicySlack, PolicyFIFO} {
		l := mustLedger(t, capacity, policy, DefaultQuota())
		var exps []*Experiment
		for _, tenant := range []string{"a", "b", "c", "d", "e"} {
			exps = append(exps, admitOne(t, l, "t-"+tenant))
		}
		// Deterministic pseudo-random exchange pattern.
		x := uint64(12345)
		for step := 0; step < 200; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			exp := exps[int(x>>33)%len(exps)]
			want := 1 + int((x>>17)%9)
			slack := float64(int(x%100) - 50)
			g, err := l.exchange(exp.ID, step, want, slack)
			if err != nil {
				t.Fatalf("%v exchange: %v", policy, err)
			}
			if g < 1 || g > want {
				t.Fatalf("%v: grant %d for want %d", policy, g, want)
			}
			if st := l.stats(); st.InUse > capacity || st.InUse+st.Free != capacity {
				t.Fatalf("%v: %d GPUs held, %d free on a %d-GPU cluster", policy, st.InUse, st.Free, capacity)
			}
		}
		// Release everything, then replay the whole log through the fleet
		// oracle (capacity conservation, exactly-once lifecycle).
		for _, exp := range exps {
			l.release(exp)
		}
		if vs := harness.CheckFleetInvariants(l.fleetLog(), capacity, len(exps)); len(vs) != 0 {
			t.Fatalf("%v: fleet oracle: %v", policy, vs)
		}
	}
}

// TestArbiterSlackReservesForCritical: a slack-rich requester is
// squeezed by the unmet demand of a more critical live experiment; the
// critical requester itself is not.
func TestArbiterSlackReservesForCritical(t *testing.T) {
	l := mustLedger(t, 10, PolicySlack, DefaultQuota())
	crit, rich := admitOne(t, l, "crit").ID, admitOne(t, l, "rich").ID
	// The critical experiment asks for 8 with slack -5 but only 6 are
	// free beyond rich's hold... first give rich a baseline hold.
	if g, _ := l.exchange(rich, 0, 4, 100); g != 4 {
		t.Fatalf("rich baseline grant = %d", g)
	}
	// Critical asks for 8: free = 10-4 = 6, no one stricter → grant 6.
	g, err := l.exchange(crit, 0, 8, -5)
	if err != nil || g != 6 {
		t.Fatalf("crit grant = %d, %v", g, err)
	}
	// Rich re-asks for 4: free = 10-6 = 4, but crit's unmet demand
	// (8-6=2) is reserved → rich squeezed to 2.
	g, err = l.exchange(rich, 1, 4, 100)
	if err != nil || g != 2 {
		t.Fatalf("rich squeezed grant = %d, %v", g, err)
	}
	// Crit re-asks: free = 10-2 = 8, nothing stricter → full 8.
	g, err = l.exchange(crit, 1, 8, -5)
	if err != nil || g != 8 {
		t.Fatalf("crit full grant = %d, %v", g, err)
	}
}

// TestArbiterFIFOStaticShare: the naive baseline caps every grant at
// capacity/live regardless of slack.
func TestArbiterFIFOStaticShare(t *testing.T) {
	l := mustLedger(t, 10, PolicyFIFO, DefaultQuota())
	a := admitOne(t, l, "a").ID
	// Alone: share = 10.
	if g, _ := l.exchange(a, 0, 8, -100); g != 8 {
		t.Fatalf("solo grant = %d", g)
	}
	b := admitOne(t, l, "b").ID
	// Two live: share = 5, even for a deadline-critical request.
	if g, _ := l.exchange(b, 0, 9, -1000); g != 2 {
		// free = 10-8 = 2 < share
		t.Fatalf("b grant = %d, want free-bound 2", g)
	}
	if g, _ := l.exchange(a, 1, 8, -100); g != 5 {
		t.Fatalf("a re-grant = %d, want share-bound 5", g)
	}
}

// TestArbiterAdmitRequiresFreeGPU: a fully-held cluster admits nothing
// (never blocks) and the pick stays queued; a release frees the slot.
func TestArbiterAdmitRequiresFreeGPU(t *testing.T) {
	l := mustLedger(t, 2, PolicySlack, DefaultQuota())
	a := admitOne(t, l, "a")
	admitOne(t, l, "b")
	c := mustSubmit(t, l, "c")
	if got := l.admit(); got != nil {
		t.Errorf("admission of %s with no free GPU accepted", got.ID)
	}
	if p := l.queuePos(c); p != 1 {
		t.Errorf("refused pick left the queue: position %d", p)
	}
	l.release(a)
	if got := l.admit(); got != c {
		t.Errorf("admission after a release = %v, want %s", got, c.ID)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"": PolicySlack, "slack": PolicySlack, "fifo": PolicyFIFO} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestArbiterLogMatchesSlice: the chunked log reads exactly as a plain
// slice appended the same events, before, at and past every chunk
// boundary; fleetLog returns a copy in one slice, and no logged event
// moves when the log grows.
func TestArbiterLogMatchesSlice(t *testing.T) {
	kinds := []string{"submit", "reject", "admit", "grant", "done"}
	var a ledger
	var ref []harness.FleetEvent
	if a.fleetLog() != nil {
		t.Fatal("an empty log is not nil")
	}
	var first *harness.FleetEvent
	for i := 0; i < 3*logChunk+7; i++ {
		e := harness.FleetEvent{
			Seq: -1, Kind: kinds[i%len(kinds)], Exp: fmt.Sprint("exp-", i/3), Tenant: fmt.Sprint("t", i%4),
			Stage: i % 5, Want: i % 9, Granted: i % 7, Held: i % 3,
		}
		a.record(e)
		e.Seq = len(ref)
		ref = append(ref, e)
		if i == 0 {
			first = &a.log[0][0]
		}
		if n := len(ref); n%logChunk <= 1 || n%logChunk == logChunk-1 || n%97 == 0 {
			got := a.fleetLog()
			if !slices.Equal(got, ref) {
				t.Fatalf("after %d events the log reads differently from the slice", n)
			}
			got[0].Kind = "tampered"
			if a.log[0][0].Kind == "tampered" {
				t.Fatal("fleetLog exposed the ledger's storage")
			}
		}
	}
	if &a.log[0][0] != first {
		t.Fatal("the first logged event moved as the log grew")
	}
}

// TestArbiterLogAllocs pins what logging N events allocates: one 32 KiB
// chunk per logChunk events and the chunk index's doublings, and no
// more bytes than those hold.
func TestArbiterLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 5*logChunk + 3
	chunks := (n + logChunk - 1) / logChunk
	ls := make([]ledger, 2)
	exactAllocs(t)
	e := harness.FleetEvent{Kind: "grant", Exp: "exp", Tenant: "t"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		ls[0].record(e)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	wantAllocs := uint64(chunks + bits.Len(uint(chunks-1)) + 1)
	maxBytes := uint64(chunks)<<15 + uint64(4*chunks)*uint64(unsafe.Sizeof([]harness.FleetEvent{}))
	t.Logf("%d events: %d allocations, %d bytes", n, allocs, bytes)
	if allocs != wantAllocs || bytes > maxBytes {
		t.Fatalf("logging %d events took %d allocations and %d bytes, want %d and at most %d", n, allocs, bytes, wantAllocs, maxBytes)
	}
}

// TestRegistryBacklog: the tenant queue is bounded; overflow returns
// ErrBacklog with a Retry-After hint that grows with the backlog, and
// other tenants are unaffected.
func TestRegistryBacklog(t *testing.T) {
	r := mustLedger(t, 4, PolicySlack, Quota{MaxQueued: 2, MaxLive: 1, MaxGPUs: 8})
	mustSubmit(t, r, "acme")
	mustSubmit(t, r, "acme")
	_, err := r.submit(regSub("acme"), nil)
	var bl *ErrBacklog
	if !errors.As(err, &bl) {
		t.Fatalf("overflow err = %v", err)
	}
	if bl.Tenant != "acme" || bl.Queued != 2 || bl.RetryAfterSeconds != 3 {
		t.Fatalf("backlog = %+v", bl)
	}
	// Another tenant still has a fresh queue.
	mustSubmit(t, r, "beta")
	// Draining one slot reopens the queue.
	if exp := r.admit(); exp == nil || exp.Sub.Tenant != "acme" {
		t.Fatalf("NextRunnable = %+v", exp)
	}
	mustSubmit(t, r, "acme")
}

// TestRegistryRoundRobinFIFO: drain order is round-robin across tenants
// in sorted order, FIFO within each tenant.
func TestRegistryRoundRobinFIFO(t *testing.T) {
	r := mustLedger(t, 16, PolicySlack, Quota{MaxQueued: 8, MaxLive: 8, MaxGPUs: 8})
	// Interleave submissions: a0 a1 b0 c0 b1 a2.
	a0 := mustSubmit(t, r, "a-corp")
	a1 := mustSubmit(t, r, "a-corp")
	b0 := mustSubmit(t, r, "b-corp")
	c0 := mustSubmit(t, r, "c-corp")
	b1 := mustSubmit(t, r, "b-corp")
	a2 := mustSubmit(t, r, "a-corp")

	want := []*Experiment{a0, b0, c0, a1, b1, a2}
	for i, w := range want {
		got := r.admit()
		if got != w {
			t.Fatalf("pick %d = %v, want %v", i, got.ID, w.ID)
		}
	}
	if extra := r.admit(); extra != nil {
		t.Fatalf("empty registry still runnable: %v", extra.ID)
	}
}

// TestRegistryLiveBounds: per-tenant MaxLive and the capacity both gate
// admit (every live experiment holds a GPU, so capacity is the global
// live bound); release frees the slots.
func TestRegistryLiveBounds(t *testing.T) {
	r := mustLedger(t, 2, PolicySlack, Quota{MaxQueued: 8, MaxLive: 1, MaxGPUs: 8})
	a0 := mustSubmit(t, r, "acme")
	mustSubmit(t, r, "acme") // blocked by tenant MaxLive=1
	b0 := mustSubmit(t, r, "beta")
	c0 := mustSubmit(t, r, "ceta") // blocked by capacity 2

	if got := r.admit(); got != a0 {
		t.Fatalf("pick = %v", got.ID)
	}
	if got := r.admit(); got != b0 {
		t.Fatalf("pick = %v", got.ID)
	}
	if got := r.admit(); got != nil {
		t.Fatalf("global bound ignored: picked %v", got.ID)
	}
	r.release(b0)
	// acme is still at its tenant bound; ceta runs instead.
	if got := r.admit(); got != c0 {
		t.Fatalf("pick after completion = %v", got.ID)
	}
	r.release(a0)
	if got := r.admit(); got == nil || got.Sub.Tenant != "acme" {
		t.Fatalf("acme's second experiment not runnable: %+v", got)
	}
}

// TestRegistryStatsAndLookup: queue positions, tenant stats, the sorted
// All view, and id lookup.
func TestRegistryStatsAndLookup(t *testing.T) {
	r := mustLedger(t, 8, PolicySlack, DefaultQuota())
	e0 := mustSubmit(t, r, "acme")
	e1 := mustSubmit(t, r, "acme")
	if p := r.queuePos(e0); p != 1 {
		t.Errorf("QueuePos(e0) = %d", p)
	}
	if p := r.queuePos(e1); p != 2 {
		t.Errorf("QueuePos(e1) = %d", p)
	}
	if got, ok := r.get(e0.ID); !ok || got != e0 {
		t.Errorf("Get(%s) = %v, %v", e0.ID, got, ok)
	}
	if _, ok := r.get("exp-9999"); ok {
		t.Error("Get of unknown id succeeded")
	}
	ts := r.tenant("acme")
	if ts.Queued != 2 || ts.Live != 0 || ts.Completed != 0 {
		t.Errorf("tenant stats = %+v", ts)
	}
	r.admit()
	if p := r.queuePos(e0); p != 0 {
		t.Errorf("QueuePos of running experiment = %d", p)
	}
	all := r.all()
	if len(all) != 2 || all[0] != e0 || all[1] != e1 {
		t.Errorf("All = %v", all)
	}
	// Unknown tenants read as zero, not as an error.
	if ts := r.tenant("nope"); ts.Queued != 0 || ts.Live != 0 {
		t.Errorf("unknown tenant stats = %+v", ts)
	}
}

// TestRegistryAdoptAdvancesIDs: recovered experiments — finished,
// requeued or resumed — advance the id counter so new submissions never
// collide with journaled runs.
func TestRegistryAdoptAdvancesIDs(t *testing.T) {
	r := mustLedger(t, 8, PolicySlack, DefaultQuota())
	rec := newExperiment("exp-0007", regSub("acme"))
	r.adopt(rec)
	next := mustSubmit(t, r, "acme")
	if next.ID != "exp-0008" {
		t.Fatalf("post-adopt id = %s, want exp-0008", next.ID)
	}
	r.requeue(newExperiment("exp-0011", regSub("beta")))
	if got := mustSubmit(t, r, "beta"); got.ID != "exp-0012" {
		t.Fatalf("post-requeue id = %s, want exp-0012", got.ID)
	}
	ts := r.tenant("acme")
	if ts.Completed != 1 {
		t.Fatalf("adopted-done not counted: %+v", ts)
	}
	// A resumed run is live at once, outside the queues.
	live := newExperiment("exp-0009", regSub("acme"))
	if err := r.resume(live); err != nil {
		t.Fatal(err)
	}
	if st := r.stats(); st.Live != 1 || st.InUse != 1 || st.Queued != 3 {
		t.Fatalf("after resume: %+v, want 1 live holding 1 GPU and 3 queued", st)
	}
}
