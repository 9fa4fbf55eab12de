package serve

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/harness"
)

func TestArbiterAdmitExchangeDone(t *testing.T) {
	arb, err := NewArbiter(8, PolicySlack)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArbiter(0, PolicySlack); err == nil {
		t.Error("capacity 0 accepted")
	}
	if err := arb.Admit("a", "acme"); err != nil {
		t.Fatal(err)
	}
	if err := arb.Admit("a", "acme"); err == nil {
		t.Error("duplicate admission accepted")
	}
	if got := arb.InUse(); got != 1 {
		t.Fatalf("InUse after admit = %d", got)
	}
	g, err := arb.Exchange("a", 0, 6, 10)
	if err != nil || g != 6 {
		t.Fatalf("Exchange = %d, %v", g, err)
	}
	if arb.InUse() != 6 || arb.Free() != 2 {
		t.Fatalf("InUse/Free = %d/%d", arb.InUse(), arb.Free())
	}
	if _, err := arb.Exchange("ghost", 0, 1, 0); err == nil {
		t.Error("exchange for non-live experiment accepted")
	}
	arb.Done("a")
	if arb.InUse() != 0 || arb.Live() != 0 {
		t.Fatalf("after Done: InUse=%d Live=%d", arb.InUse(), arb.Live())
	}
	arb.Done("a") // idempotent
}

// TestArbiterNeverBlocksAndNeverOversubscribes: a sweep of random-ish
// exchange patterns keeps Σ holds ≤ capacity with every grant ≥ 1.
func TestArbiterNeverBlocksAndNeverOversubscribes(t *testing.T) {
	const capacity = 12
	for _, policy := range []Policy{PolicySlack, PolicyFIFO} {
		arb, err := NewArbiter(capacity, policy)
		if err != nil {
			t.Fatal(err)
		}
		ids := []string{"a", "b", "c", "d", "e"}
		for _, id := range ids {
			if err := arb.Admit(id, "t-"+id); err != nil {
				t.Fatalf("%v admit %s: %v", policy, id, err)
			}
		}
		// Deterministic pseudo-random exchange pattern.
		x := uint64(12345)
		for step := 0; step < 200; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			id := ids[int(x>>33)%len(ids)]
			want := 1 + int((x>>17)%9)
			slack := float64(int(x%100) - 50)
			g, err := arb.Exchange(id, step, want, slack)
			if err != nil {
				t.Fatalf("%v exchange: %v", policy, err)
			}
			if g < 1 || g > want {
				t.Fatalf("%v: grant %d for want %d", policy, g, want)
			}
			if used := arb.InUse(); used > capacity {
				t.Fatalf("%v: %d/%d GPUs held", policy, used, capacity)
			}
		}
		// Synthesize completions, then replay the whole log through the
		// fleet oracle (capacity conservation, exactly-once lifecycle).
		for _, id := range ids {
			arb.Done(id)
		}
		evlog := arb.Log()
		// Prepend the submits the oracle expects.
		full := make([]harness.FleetEvent, 0, len(evlog)+len(ids))
		for i, id := range ids {
			full = append(full, harness.FleetEvent{Seq: i, Kind: "submit", Exp: id, Tenant: "t-" + id})
		}
		for _, e := range evlog {
			e.Seq += len(ids)
			full = append(full, e)
		}
		if vs := harness.CheckFleetInvariants(full, capacity, len(ids)); len(vs) != 0 {
			t.Fatalf("%v: fleet oracle: %v", policy, vs)
		}
	}
}

// TestArbiterSlackReservesForCritical: a slack-rich requester is
// squeezed by the unmet demand of a more critical live experiment; the
// critical requester itself is not.
func TestArbiterSlackReservesForCritical(t *testing.T) {
	arb, err := NewArbiter(10, PolicySlack)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"crit", "rich"} {
		if err := arb.Admit(id, id); err != nil {
			t.Fatal(err)
		}
	}
	// The critical experiment asks for 8 with slack -5 but only 6 are
	// free beyond rich's hold... first give rich a baseline hold.
	if g, _ := arb.Exchange("rich", 0, 4, 100); g != 4 {
		t.Fatalf("rich baseline grant = %d", g)
	}
	// Critical asks for 8: free = 10-4 = 6, no one stricter → grant 6.
	g, err := arb.Exchange("crit", 0, 8, -5)
	if err != nil || g != 6 {
		t.Fatalf("crit grant = %d, %v", g, err)
	}
	// Rich re-asks for 4: free = 10-6 = 4, but crit's unmet demand
	// (8-6=2) is reserved → rich squeezed to 2.
	g, err = arb.Exchange("rich", 1, 4, 100)
	if err != nil || g != 2 {
		t.Fatalf("rich squeezed grant = %d, %v", g, err)
	}
	// Crit re-asks: free = 10-2 = 8, nothing stricter → full 8.
	g, err = arb.Exchange("crit", 1, 8, -5)
	if err != nil || g != 8 {
		t.Fatalf("crit full grant = %d, %v", g, err)
	}
}

// TestArbiterFIFOStaticShare: the naive baseline caps every grant at
// capacity/live regardless of slack.
func TestArbiterFIFOStaticShare(t *testing.T) {
	arb, err := NewArbiter(10, PolicyFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if err := arb.Admit("a", "a"); err != nil {
		t.Fatal(err)
	}
	// Alone: share = 10.
	if g, _ := arb.Exchange("a", 0, 8, -100); g != 8 {
		t.Fatalf("solo grant = %d", g)
	}
	if err := arb.Admit("b", "b"); err != nil {
		t.Fatal(err)
	}
	// Two live: share = 5, even for a deadline-critical request.
	if g, _ := arb.Exchange("b", 0, 9, -1000); g != 2 {
		// free = 10-8 = 2 < share
		t.Fatalf("b grant = %d, want free-bound 2", g)
	}
	if g, _ := arb.Exchange("a", 1, 8, -100); g != 5 {
		t.Fatalf("a re-grant = %d, want share-bound 5", g)
	}
}

// TestArbiterAdmitRequiresFreeGPU: a fully-held cluster refuses
// admission (never blocks); a completion frees the slot.
func TestArbiterAdmitRequiresFreeGPU(t *testing.T) {
	arb, err := NewArbiter(2, PolicySlack)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := arb.Admit(id, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := arb.Admit("c", "c"); err == nil {
		t.Error("admission with no free GPU accepted")
	}
	arb.Done("a")
	if err := arb.Admit("c", "c"); err != nil {
		t.Errorf("admission after a completion refused: %v", err)
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
// boundary; Log returns a copy in one slice, and no logged event moves
// when the log grows.
func TestArbiterLogMatchesSlice(t *testing.T) {
	kinds := []string{"submit", "reject", "admit", "grant", "done"}
	var a Arbiter
	var ref []harness.FleetEvent
	if a.Log() != nil {
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
			got := a.Log()
			if !slices.Equal(got, ref) {
				t.Fatalf("after %d events the log reads differently from the slice", n)
			}
			got[0].Kind = "tampered"
			if a.log[0][0].Kind == "tampered" {
				t.Fatal("Log exposed the arbiter's storage")
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
	arbs := make([]Arbiter, 2)
	exactAllocs(t)
	e := harness.FleetEvent{Kind: "grant", Exp: "exp", Tenant: "t"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		arbs[0].record(e)
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

// Live returns the number of live experiments.
func (a *Arbiter) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.holds)
}
