package spec

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestEmptyAddStage(t *testing.T) {
	s := Empty().AddStage(64, 4).AddStage(32, 8)
	if s.NumStages() != 2 {
		t.Fatalf("NumStages = %d", s.NumStages())
	}
	if st := s.Stage(0); st.Trials != 64 || st.Iters != 4 {
		t.Fatalf("stage 0 = %+v", st)
	}
	if s.TotalTrials() != 64 {
		t.Errorf("TotalTrials = %d", s.TotalTrials())
	}
	if s.MaxIters() != 12 {
		t.Errorf("MaxIters = %d", s.MaxIters())
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Stage{Trials: 2, Iters: 3}); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := [][]Stage{
		{},                       // no stages
		{{Trials: 0, Iters: 1}},  // zero trials
		{{Trials: 1, Iters: 0}},  // zero iters
		{{Trials: -1, Iters: 1}}, // negative
		{{2, 1}, {4, 1}},         // growing trials
	}
	for i, stages := range bad {
		if _, err := New(stages...); err == nil {
			t.Errorf("case %d: invalid spec accepted: %v", i, stages)
		}
	}
}

func TestString(t *testing.T) {
	s := Empty().AddStage(64, 4).AddStage(32, 8)
	if got := s.String(); got != "[64x4 | 32x8]" {
		t.Errorf("String = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Empty().AddStage(10, 5).AddStage(5, 10)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back ExperimentSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != s.String() {
		t.Fatalf("round trip %q != %q", back.String(), s.String())
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var s ExperimentSpec
	if err := json.Unmarshal([]byte(`[{"trials":0,"iters":1}]`), &s); err == nil {
		t.Fatal("invalid JSON spec accepted")
	}
}

func TestStagesReturnsCopy(t *testing.T) {
	s := Empty().AddStage(4, 2)
	st := s.Stages()
	st[0].Trials = 999
	if s.Stage(0).Trials != 4 {
		t.Fatal("Stages() exposed internal slice")
	}
}

func TestSHAPaperExample(t *testing.T) {
	// Figure 3: reduction factor 2, trials halve each stage.
	s := MustSHA(8, 1, 4, 2)
	stages := s.Stages()
	wantTrials := []int{8, 4, 2}
	if len(stages) != len(wantTrials) {
		t.Fatalf("stages = %v", stages)
	}
	for i, st := range stages {
		if st.Trials != wantTrials[i] {
			t.Errorf("stage %d trials = %d, want %d", i, st.Trials, wantTrials[i])
		}
	}
	// Cumulative work of the survivor equals R.
	if s.MaxIters() != 4 {
		t.Errorf("MaxIters = %d, want 4", s.MaxIters())
	}
}

func TestSHAEvaluationWorkload(t *testing.T) {
	// SHA(n=64, r=4, R=508) from §6.1 with eta=2.
	s := MustSHA(64, 4, 508, 2)
	if s.TotalTrials() != 64 {
		t.Fatalf("TotalTrials = %d", s.TotalTrials())
	}
	stages := s.Stages()
	// 64 -> 32 -> 16 -> 8 -> 4 -> 2 -> 1 plus the clamp stage to R=508.
	if stages[0].Trials != 64 || stages[0].Iters != 4 {
		t.Errorf("stage 0 = %+v", stages[0])
	}
	// The survivor's cumulative work is exactly R.
	if got := s.MaxIters(); got != 508 {
		t.Errorf("MaxIters = %d, want 508", got)
	}
	// Trial counts are non-increasing and halve (ceil) each step.
	for i := 1; i < len(stages); i++ {
		if stages[i].Trials > stages[i-1].Trials {
			t.Errorf("stage %d grew: %v", i, stages)
		}
	}
}

func TestSHAEta3(t *testing.T) {
	// Table 2 spec: SHA(n=32, r=1, R=50, eta=3); Table 3 reports the
	// schedule 32 -> 10 -> 3 -> 1 over epoch boundaries 1, 4, 13, 50.
	s := MustSHA(32, 1, 50, 3)
	stages := s.Stages()
	wantTrials := []int{32, 10, 3, 1}
	wantIters := []int{1, 3, 9, 37}
	for i, w := range wantIters {
		if i < len(stages) && stages[i].Iters != w {
			t.Errorf("stage %d iters = %d, want %d", i, stages[i].Iters, w)
		}
	}
	if len(stages) != len(wantTrials) {
		t.Fatalf("got %d stages: %v", len(stages), stages)
	}
	for i, w := range wantTrials {
		if stages[i].Trials != w {
			t.Errorf("stage %d trials = %d, want %d (stages %v)", i, stages[i].Trials, w, stages)
		}
	}
	if s.MaxIters() != 50 {
		t.Errorf("MaxIters = %d, want 50 (clamped at R)", s.MaxIters())
	}
}

func TestSHASingleStage(t *testing.T) {
	// R == r: a single stage, no halving.
	s := MustSHA(16, 8, 8, 2)
	if s.NumStages() != 1 {
		t.Fatalf("stages = %v", s.Stages())
	}
	if st := s.Stage(0); st.Trials != 16 || st.Iters != 8 {
		t.Fatalf("stage = %+v", st)
	}
}

func TestSHASingleTrial(t *testing.T) {
	// A single trial is trained for the full budget R.
	s := MustSHA(1, 4, 64, 2)
	if s.NumStages() != 1 {
		t.Fatalf("n=1 should yield one stage, got %v", s.Stages())
	}
	if s.Stage(0).Iters != 64 {
		t.Fatalf("n=1 stage iters = %d, want 64", s.Stage(0).Iters)
	}
}

func TestSHAValidation(t *testing.T) {
	bad := []SHAParams{
		{N: 0, R: 1, MaxR: 2, Eta: 2},
		{N: 4, R: 0, MaxR: 2, Eta: 2},
		{N: 4, R: 4, MaxR: 2, Eta: 2},
		{N: 4, R: 1, MaxR: 2, Eta: 1},
	}
	for i, p := range bad {
		if _, err := SHA(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestHyperbandBrackets(t *testing.T) {
	brackets, err := Hyperband(81, 3)
	if err != nil {
		t.Fatal(err)
	}
	// s_max = log_3(81) = 4, so 5 brackets.
	if len(brackets) != 5 {
		t.Fatalf("got %d brackets", len(brackets))
	}
	// First (most aggressive) bracket: n = ceil(5/5 * 81) = 81, r = 1.
	b0 := brackets[0]
	if b0.TotalTrials() != 81 {
		t.Errorf("bracket 0 trials = %d, want 81", b0.TotalTrials())
	}
	if b0.Stage(0).Iters != 1 {
		t.Errorf("bracket 0 r = %d, want 1", b0.Stage(0).Iters)
	}
	// Last bracket: n = ceil(5/1 * 1) = 5 trials with full budget.
	last := brackets[len(brackets)-1]
	if last.NumStages() != 1 {
		t.Errorf("last bracket has %d stages, want 1", last.NumStages())
	}
	if last.Stage(0).Iters != 81 {
		t.Errorf("last bracket iters = %d, want 81", last.Stage(0).Iters)
	}
	// All brackets' survivors reach the full budget R.
	for i, b := range brackets {
		if b.MaxIters() != 81 {
			t.Errorf("bracket %d MaxIters = %d, want 81", i, b.MaxIters())
		}
	}
}

func TestHyperbandValidation(t *testing.T) {
	if _, err := Hyperband(0, 3); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := Hyperband(81, 1); err == nil {
		t.Error("eta=1 accepted")
	}
}

// Property: every generated SHA spec is structurally valid, trial counts
// shrink by exactly ceil(n/eta) per stage, and the survivor's cumulative
// work never exceeds R.
func TestQuickSHAInvariants(t *testing.T) {
	f := func(nRaw, rRaw, mulRaw, etaRaw uint8) bool {
		n := int(nRaw%200) + 1
		r := int(rRaw%20) + 1
		maxR := r * (int(mulRaw%100) + 1)
		eta := int(etaRaw%4) + 2
		s, err := SHA(SHAParams{N: n, R: r, MaxR: maxR, Eta: eta})
		if err != nil {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		if s.TotalTrials() != n {
			return false
		}
		// The survivor always trains to exactly the full budget R.
		if s.MaxIters() != maxR {
			return false
		}
		stages := s.Stages()
		etaK := 1
		for i := range stages {
			wantTrials := n / etaK
			if wantTrials < 1 {
				wantTrials = 1
			}
			if stages[i].Trials != wantTrials {
				return false
			}
			etaK *= eta
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Hyperband brackets are all valid and non-empty.
func TestQuickHyperbandInvariants(t *testing.T) {
	f := func(rRaw, etaRaw uint8) bool {
		maxR := int(rRaw%200) + 1
		eta := int(etaRaw%4) + 2
		brackets, err := Hyperband(maxR, eta)
		if err != nil || len(brackets) == 0 {
			return false
		}
		for _, b := range brackets {
			if b.Validate() != nil || b.MaxIters() > maxR {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSuffix(t *testing.T) {
	s, err := New(Stage{Trials: 8, Iters: 2}, Stage{Trials: 4, Iters: 3}, Stage{Trials: 1, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	tail := s.Suffix(1)
	if tail.NumStages() != 2 || tail.Stage(0) != (Stage{Trials: 4, Iters: 3}) || tail.Stage(1) != (Stage{Trials: 1, Iters: 5}) {
		t.Fatalf("Suffix(1) = %v", tail)
	}
	if full := s.Suffix(0); full.NumStages() != 3 {
		t.Fatalf("Suffix(0) = %v", full)
	}
	if err := s.Suffix(1).Validate(); err != nil {
		t.Fatalf("suffix spec invalid: %v", err)
	}
	if s.NumStages() != 3 {
		t.Fatal("Suffix mutated the receiver")
	}
	for _, from := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Suffix(%d) did not panic", from)
				}
			}()
			s.Suffix(from)
		}()
	}
}

// TestSuffixIntoReusesStorage: SuffixInto makes its destination the
// spec Suffix returns, in the destination's own storage, whatever it
// held before.
func TestSuffixIntoReusesStorage(t *testing.T) {
	s, err := New(Stage{Trials: 8, Iters: 2}, Stage{Trials: 4, Iters: 3}, Stage{Trials: 1, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	var dst ExperimentSpec
	for _, from := range []int{0, 2, 1} {
		if got := s.SuffixInto(from, &dst); got != &dst || got.String() != s.Suffix(from).String() {
			t.Fatalf("SuffixInto(%d) = %v, Suffix %v", from, got, s.Suffix(from))
		}
	}
	if &dst.stages[0] == &s.stages[1] {
		t.Fatal("SuffixInto aliases the receiver's stages")
	}
	if allocs := testing.AllocsPerRun(10, func() { s.SuffixInto(0, &dst) }); allocs != 0 {
		t.Fatalf("SuffixInto into a large enough spec allocates %v times", allocs)
	}
}

// Stages returns a copy of the stage list.
func (s *ExperimentSpec) Stages() []Stage {
	return append([]Stage(nil), s.stages...)
}
