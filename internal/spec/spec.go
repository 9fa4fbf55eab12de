// Package spec defines the declarative experiment specification that sits
// between early-stopping algorithms and RubberBand (Figure 6 of the paper).
//
// A specification lists the job's sequential stages; each stage says how
// many trials run and how many training iterations each trial executes in
// that stage. Because algorithms such as Successive Halving are declarative
// — their structure is known before runtime — the whole specification is
// available to the planner offline. A Hyperband run is a collection of
// per-bracket specifications (a multi-job).
package spec

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Stage describes one synchronous stage of an early-stopping job.
type Stage struct {
	// Trials is the number of concurrent candidate configurations alive
	// in this stage. Must be positive and non-increasing across stages.
	Trials int `json:"trials"`
	// Iters is the number of training iterations each surviving trial
	// executes during this stage (incremental work, not cumulative).
	Iters int `json:"iters"`
}

// ExperimentSpec is an ordered list of stages. The zero value is an empty
// specification to which stages can be added.
type ExperimentSpec struct {
	stages []Stage
}

// Empty returns an empty specification, mirroring rb.EmptyExperimentSpec()
// from the paper's API sketch.
func Empty() *ExperimentSpec { return &ExperimentSpec{} }

// New builds a specification from stages and validates it.
func New(stages ...Stage) (*ExperimentSpec, error) {
	s := &ExperimentSpec{stages: append([]Stage(nil), stages...)}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// AddStage appends a stage with the given trial count and per-trial
// iteration assignment, returning the spec for chaining.
func (s *ExperimentSpec) AddStage(trials, iters int) *ExperimentSpec {
	s.stages = append(s.stages, Stage{Trials: trials, Iters: iters})
	return s
}

// NumStages returns the number of stages.
func (s *ExperimentSpec) NumStages() int { return len(s.stages) }

// Stage returns the i-th stage. It panics if i is out of range.
func (s *ExperimentSpec) Stage(i int) Stage { return s.stages[i] }

// TotalTrials returns the number of trials started in the first stage (the
// experiment's population size). Zero for an empty spec.
func (s *ExperimentSpec) TotalTrials() int {
	if len(s.stages) == 0 {
		return 0
	}
	return s.stages[0].Trials
}

// MaxIters returns the cumulative iterations executed by a trial that
// survives every stage.
func (s *ExperimentSpec) MaxIters() int {
	total := 0
	for _, st := range s.stages {
		total += st.Iters
	}
	return total
}

// Suffix returns the specification consisting of stages from..NumStages-1
// — the remaining work an online replanner re-plans after the first `from`
// stages have executed. The suffix of a valid spec is itself valid (trial
// counts stay non-increasing). It panics if from is out of [0, NumStages).
func (s *ExperimentSpec) Suffix(from int) *ExperimentSpec { //rbvet:ignore unreached — the replan reference tests build tail specs with it
	return s.SuffixInto(from, new(ExperimentSpec))
}

// SuffixInto makes dst the specification Suffix(from) returns, copying
// the stages into dst's own storage (reused when it is large enough),
// and returns dst. dst must not be s.
func (s *ExperimentSpec) SuffixInto(from int, dst *ExperimentSpec) *ExperimentSpec {
	if from < 0 || from >= len(s.stages) {
		panic(fmt.Sprintf("spec: suffix from stage %d of %d", from, len(s.stages)))
	}
	dst.stages = append(dst.stages[:0], s.stages[from:]...)
	return dst
}

// Validate checks structural invariants: at least one stage, positive
// trials and iterations, and a non-increasing trial count (early stopping
// only ever terminates trials).
func (s *ExperimentSpec) Validate() error {
	if len(s.stages) == 0 {
		return fmt.Errorf("spec: no stages")
	}
	prev := 0
	for i, st := range s.stages {
		if st.Trials <= 0 {
			return fmt.Errorf("spec: stage %d has %d trials", i, st.Trials)
		}
		if st.Iters <= 0 {
			return fmt.Errorf("spec: stage %d has %d iters", i, st.Iters)
		}
		if i > 0 && st.Trials > prev {
			return fmt.Errorf("spec: stage %d grows trials %d -> %d", i, prev, st.Trials)
		}
		prev = st.Trials
	}
	return nil
}

// String renders the spec compactly, e.g. "[64x4 | 32x8 | 16x16]".
func (s *ExperimentSpec) String() string {
	parts := make([]string, len(s.stages))
	for i, st := range s.stages {
		parts[i] = fmt.Sprintf("%dx%d", st.Trials, st.Iters)
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// MarshalJSON encodes the spec as its stage list.
func (s *ExperimentSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.stages)
}

// UnmarshalJSON decodes a stage list and validates it.
func (s *ExperimentSpec) UnmarshalJSON(data []byte) error {
	var stages []Stage
	if err := json.Unmarshal(data, &stages); err != nil {
		return err
	}
	s.stages = stages
	return s.Validate()
}
