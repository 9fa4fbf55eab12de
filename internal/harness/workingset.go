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

// workingSet is the state one run executes on: its Simulator (planning,
// then drift classification) and Planner, its replan controller,
// its random streams, its clock, its trace recorder, the executor's
// workspace (trials, scheduler columns, gang slab, buffers, placement
// controller, checkpoint store), the cluster manager, the provider, the
// sampled configurations and, for Run, the Running itself.
// StartScenario draws a set from workingSets; a finished run returns it
// reset, with its capacity kept and every pointer cleared, so the next
// run neither grows nor rebuilds any of it and inherits no state.
type workingSet struct {
	plan    sim.Simulator
	planner planner.Planner
	// ctl is the run's replan controller, replanRNG its root stream.
	ctl       replan.Controller
	replanRNG stats.RNG
	clock     vclock.Clock
	rec       trace.Recorder
	exec      executor.Workspace
	provider  cloud.Provider
	mgr       cluster.Manager
	// root is the scenario's root stream; the others are derived from it
	// for the simulators, the executor, the provider and the sampled
	// configurations.
	root, simRNG, execRNG, provRNG, cfgRNG stats.RNG
	// configs and vals are the run's configurations and the value slab
	// they share.
	configs []searchspace.Config
	vals    []float64
	// running is the Running that Run drives on the set.
	running Running
}

// workingSets holds the working sets finished runs returned.
var workingSets = sync.Pool{New: func() any { return new(workingSet) }}

// getWorkingSet returns a working set from the pool, ready for a run.
func getWorkingSet() *workingSet { return workingSets.Get().(*workingSet) }

// putWorkingSet returns a reset working set to the pool.
func putWorkingSet(ws *workingSet) { workingSets.Put(ws) }

// detachArtifacts gives the parts a run's Artifacts point into to the
// artifacts for good — the trials and their configurations, the
// instance records — so the set can go back to the pool while the
// artifacts live on. The next run on the set allocates those parts
// afresh. The recorder stays with the set: Run hands the artifacts a
// frozen copy of it.
func (ws *workingSet) detachArtifacts() {
	ws.exec.DetachTrials()
	ws.provider.DetachInstances()
	ws.configs, ws.vals = nil, nil
}

// reset resets every part of the set, keeping its capacity and clearing
// every pointer it held.
func (ws *workingSet) reset() {
	ws.plan.Reset()
	ws.planner = planner.Planner{}
	ws.ctl.Reset()
	ws.clock.Reset()
	ws.rec.Reset()
	ws.exec.Reset()
	ws.mgr.Reset()
	ws.provider.Reset()
	clear(ws.configs[:cap(ws.configs)])
	ws.configs = ws.configs[:0]
	ws.running = Running{}
}
