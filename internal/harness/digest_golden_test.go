package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pinnedCorpus returns the checked-in harness corpus: every (seed, index)
// pinned by the end-to-end fuzz corpus, including the scatter
// double-booking and replan-recovery regressions.
func pinnedCorpus() []Scenario {
	pairs := [][2]uint64{
		{1, 0},
		{1, 21},  // scatter + provisioning failures
		{2, 52},  // scatter double-booking regression
		{3, 195}, // scatter + spot preemptions
		{42, 13},
		{4, 50},  // drift-triggered replan, tail adopted
		{4, 17},  // drift classified infeasible, replan declines
		{4, 143}, // preemption-triggered replan
	}
	out := make([]Scenario, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, Generate(p[0], int(p[1])))
	}
	return out
}

// TestCorpusDigestGolden pins the replay digest and event count of the
// pinned corpus plus one arbiter-capped scenario. The digest covers the
// event trace, result, billing ledger, grants and replan decisions, so
// any drift in the simulation kernel's firing order flips a line here.
// Regenerate with
// `go test ./internal/harness -run TestCorpusDigestGolden -update` and
// justify the diff.
func TestCorpusDigestGolden(t *testing.T) {
	scs := append(pinnedCorpus(), findCapScenario(t, 101))
	var lines []string
	for _, sc := range scs {
		a, err := RunScenario(sc)
		if err != nil {
			t.Fatalf("seed=%d index=%d: %v", sc.BatchSeed, sc.Index, err)
		}
		lines = append(lines, fmt.Sprintf("seed=%d index=%d caps=%v digest=%016x steps=%d\n",
			sc.BatchSeed, sc.Index, sc.ArbiterCaps, uint64(ComputeDigest(a)), a.Steps))
	}
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", "corpus_digests.txt")
	if *updateNotes {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("corpus digests drifted from %s:\n got:\n%s want:\n%s", path, got, want)
	}
}
