package harness

import (
	"sync"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/planner"
	"repro/internal/replan"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// workingSet is the state one run executes on: its planning and
// drift-classification Simulators and Planner, its replan controller,
// its clock, its trace recorder, the executor's workspace (trials,
// scheduler columns, gang slab, buffers, placement controller,
// checkpoint store), the cluster manager, the provider and the sampled
// configurations. StartScenario draws a set from workingSets; a
// finished run returns it reset, with its capacity kept and every
// pointer cleared, so the next run neither grows nor rebuilds any of it
// and inherits no state.
type workingSet struct {
	plan, drift sim.Simulator
	planner     planner.Planner
	// ctl is the run's replan controller, replanRNG its root stream.
	ctl       replan.Controller
	replanRNG stats.RNG
	clock     vclock.Clock
	rec       *trace.Recorder
	exec      executor.Workspace
	provider  cloud.Provider
	mgr       cluster.Manager
	// configs and vals are the run's configurations and the value slab
	// they share.
	configs []searchspace.Config
	vals    []float64
}

// workingSets holds the working sets finished runs returned.
var workingSets = sync.Pool{New: func() any { return new(workingSet) }}

// getWorkingSet returns a working set from the pool, ready for a run.
func getWorkingSet() *workingSet { return workingSets.Get().(*workingSet).ready() }

// putWorkingSet returns a reset working set to the pool.
func putWorkingSet(ws *workingSet) { workingSets.Put(ws) }

// ready gives a set whose recorder went to a run's artifacts a new one.
func (ws *workingSet) ready() *workingSet {
	if ws.rec == nil {
		ws.rec = trace.New()
	}
	return ws
}

// detachArtifacts gives the parts a run's Artifacts point into to the
// artifacts for good — the recorder, the trials and their
// configurations, the instance records — so the set can go back to the
// pool while the artifacts live on. The next run on the set allocates
// those parts afresh.
func (ws *workingSet) detachArtifacts() {
	ws.rec = nil
	ws.exec.DetachTrials()
	ws.provider.DetachInstances()
	ws.configs, ws.vals = nil, nil
}

// reset resets every part of the set, keeping its capacity and clearing
// every pointer it held.
func (ws *workingSet) reset() {
	ws.plan.Reset()
	ws.drift.Reset()
	ws.planner = planner.Planner{}
	ws.ctl.Reset()
	ws.clock.Reset()
	ws.rec.Reset()
	ws.exec.Reset()
	ws.mgr.Reset()
	ws.provider.Reset()
	clear(ws.configs[:cap(ws.configs)])
	ws.configs = ws.configs[:0]
}
