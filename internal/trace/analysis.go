package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/vclock"
)

// StageSummary aggregates the events of one stage.
type StageSummary struct {
	Stage      int
	Start, End vclock.Time
	// TrialStarts counts trial (re)starts, Restores checkpoint
	// restores, Kills terminations at the stage's barrier.
	TrialStarts int
	Restores    int
	Kills       int
	// Iterations counts recorded training iterations.
	Iterations int
}

// Duration returns the stage's wall-clock span.
func (s StageSummary) Duration() float64 { return float64(s.End - s.Start) } //rbvet:ignore unreached — the integration test checks stage durations through it

// StageBreakdown reconstructs per-stage summaries from an event log. It
// returns stages in order; events outside any stage_start/stage_end pair
// are attributed to the stage index they carry.
func StageBreakdown(events []Event) []StageSummary { //rbvet:ignore unreached — the integration test rebuilds the stage schedule from a trace with it
	byStage := make(map[int]*StageSummary)
	get := func(stage int) *StageSummary {
		s, ok := byStage[stage]
		if !ok {
			s = &StageSummary{Stage: stage}
			byStage[stage] = s
		}
		return s
	}
	for _, e := range events {
		s := get(e.Stage)
		switch e.Kind {
		case KindStageStart:
			s.Start = e.At
		case KindStageEnd:
			s.End = e.At
		case KindTrialStart:
			s.TrialStarts++
		case KindRestore:
			s.Restores++
		case KindTrialKill:
			s.Kills++
		case KindTrialIter:
			s.Iterations++
		}
	}
	out := make([]StageSummary, 0, len(byStage))
	for _, s := range byStage {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// TrialSpan is one trial's activity window within a stage, for Gantt-style
// visualization.
type TrialSpan struct {
	Trial      int
	Stage      int
	Start, End vclock.Time
}

// TrialSpans extracts per-trial, per-stage activity windows: from the
// trial's (re)start to its stage completion (or kill). Trials restarted
// within a stage (preemption recovery) contribute multiple spans.
func TrialSpans(events []Event) []TrialSpan {
	var spans []TrialSpan
	open := make(map[[2]int]vclock.Time) // (trial, stage) -> start
	for _, e := range events {
		key := [2]int{e.Trial, e.Stage}
		switch e.Kind {
		case KindTrialStart:
			open[key] = e.At
		case KindTrialDone, KindTrialPause, KindTrialKill:
			if start, ok := open[key]; ok {
				spans = append(spans, TrialSpan{Trial: e.Trial, Stage: e.Stage, Start: start, End: e.At})
				delete(open, key)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Trial < spans[j].Trial
	})
	return spans
}

// WriteGanttCSV emits trial spans as CSV (trial, stage, start, end) for
// external plotting.
func WriteGanttCSV(w io.Writer, spans []TrialSpan) error {
	if _, err := fmt.Fprintln(w, "trial,stage,start,end"); err != nil {
		return err
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f\n",
			s.Trial, s.Stage, float64(s.Start), float64(s.End)); err != nil {
			return err
		}
	}
	return nil
}
