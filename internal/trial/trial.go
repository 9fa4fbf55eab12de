// Package trial models the lifecycle of one hyperparameter-configuration
// evaluation: a gang of data parallel workers that trains a model in
// iterations, reports intermediate metrics, and can be checkpointed,
// paused, migrated and restored between iterations (§3, §5).
package trial

import (
	"fmt"

	"repro/internal/searchspace"
	"repro/internal/vclock"
)

// ID identifies a trial within one experiment.
type ID int

// State is a trial's lifecycle state.
type State int

const (
	// Pending means the trial has not yet been scheduled.
	Pending State = iota
	// Running means the trial's workers are actively training.
	Running
	// Paused means the trial is checkpointed awaiting resources or the
	// next stage.
	Paused
	// Terminated means the trial was pruned by the tuning algorithm.
	Terminated
	// Completed means the trial survived every stage of the experiment.
	Completed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Terminated:
		return "terminated"
	case Completed:
		return "completed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Metric is one intermediate training observation.
type Metric struct {
	// CumIters is the cumulative iteration count at observation time.
	CumIters int
	// Accuracy is the observed validation accuracy.
	Accuracy float64
	// At is the virtual time of the observation.
	At vclock.Time
}

// Trial is one candidate configuration's training run. Mutations go
// through methods so state transitions stay legal.
type Trial struct {
	id     ID
	config searchspace.Config

	state    State
	cumIters int
	// latest is the most recent observation; CumIters 0 means none. The
	// run's trace keeps the whole history (its trial_iter events).
	latest Metric

	// gpus and nodes describe the current worker gang: total workers and
	// the node spread the placement gave them.
	gpus  int
	nodes int
}

// New returns a pending trial for the given configuration.
func New(id ID, config searchspace.Config) *Trial {
	t := new(Trial)
	t.Init(id, config)
	return t
}

// Init makes t a pending trial for the given configuration, as New does
// for a trial of its own: a caller carving many trials from one block
// initializes each in place.
func (t *Trial) Init(id ID, config searchspace.Config) {
	*t = Trial{id: id, config: config, state: Pending}
}

// ID returns the trial identifier.
func (t *Trial) ID() ID { return t.id }

// Config returns the trial's hyperparameter configuration.
func (t *Trial) Config() searchspace.Config { return t.config }

// State returns the current lifecycle state.
func (t *Trial) State() State { return t.state }

// CumIters returns the trial's cumulative completed iterations.
func (t *Trial) CumIters() int { return t.cumIters }

// GPUs returns the size of the current worker gang (0 unless Running).
func (t *Trial) GPUs() int { return t.gpus }

// Nodes returns the node spread of the current gang (0 unless Running).
func (t *Trial) Nodes() int { return t.nodes }

// Start transitions the trial to Running with a gang of gpus workers
// spanning nodes machines. Valid from Pending or Paused.
func (t *Trial) Start(gpus, nodes int) error {
	if t.state != Pending && t.state != Paused {
		return fmt.Errorf("trial %d: Start from %v", t.id, t.state)
	}
	if gpus < 1 || nodes < 1 || nodes > gpus {
		return fmt.Errorf("trial %d: invalid gang %d GPUs / %d nodes", t.id, gpus, nodes)
	}
	t.state = Running
	t.gpus, t.nodes = gpus, nodes
	return nil
}

// RecordIteration advances the trial by one iteration and records the
// observed accuracy. Valid only while Running.
func (t *Trial) RecordIteration(accuracy float64, at vclock.Time) error {
	if t.state != Running {
		return fmt.Errorf("trial %d: RecordIteration while %v", t.id, t.state)
	}
	t.cumIters++
	t.latest = Metric{CumIters: t.cumIters, Accuracy: accuracy, At: at}
	return nil
}

// Pause checkpoints the trial at a stage boundary, destroying its workers.
// Valid only while Running.
func (t *Trial) Pause() error {
	if t.state != Running {
		return fmt.Errorf("trial %d: Pause while %v", t.id, t.state)
	}
	t.state = Paused
	t.gpus, t.nodes = 0, 0
	return nil
}

// Terminate prunes the trial. Valid from any live state; terminating a
// Completed trial is an error.
func (t *Trial) Terminate() error {
	if t.state == Completed {
		return fmt.Errorf("trial %d: Terminate after completion", t.id)
	}
	t.state = Terminated
	t.gpus, t.nodes = 0, 0
	return nil
}

// Complete marks the trial as having survived the full experiment. Valid
// from Running or Paused.
func (t *Trial) Complete() error {
	if t.state != Running && t.state != Paused {
		return fmt.Errorf("trial %d: Complete from %v", t.id, t.state)
	}
	t.state = Completed
	t.gpus, t.nodes = 0, 0
	return nil
}

// Preempt handles the loss of the trial's workers to an instance
// reclamation: the gang is gone and the trial is Paused awaiting a
// restore. Valid only while Running.
func (t *Trial) Preempt() error {
	if t.state != Running {
		return fmt.Errorf("trial %d: Preempt while %v", t.id, t.state)
	}
	t.state = Paused
	t.gpus, t.nodes = 0, 0
	return nil
}

// Restore rewinds the trial to a checkpoint: progress made after the
// checkpoint (lost to a preemption) is discarded, and the checkpoint's
// accuracy becomes the latest observation again (none at iteration 0).
// Valid only while Paused, and only to a checkpoint in [0, current
// progress].
func (t *Trial) Restore(ck Checkpoint) error {
	if t.state != Paused {
		return fmt.Errorf("trial %d: Restore while %v", t.id, t.state)
	}
	if ck.Trial != t.id {
		return fmt.Errorf("trial %d: Restore from checkpoint of trial %d", t.id, ck.Trial)
	}
	if ck.CumIters < 0 {
		return fmt.Errorf("trial %d: Restore to negative progress %d", t.id, ck.CumIters)
	}
	if ck.CumIters > t.cumIters {
		return fmt.Errorf("trial %d: Restore forward to %d from %d", t.id, ck.CumIters, t.cumIters)
	}
	t.cumIters = ck.CumIters
	if t.latest.CumIters > ck.CumIters {
		// Checkpoint records the latest accuracy at its CumIters, so
		// this is the observation the trial last made at that
		// iteration.
		t.latest = Metric{CumIters: ck.CumIters, Accuracy: ck.Accuracy}
		if ck.CumIters == 0 {
			t.latest = Metric{}
		}
	}
	return nil
}

// LatestAccuracy returns the most recent observed accuracy, or 0 and false
// if no metric has been recorded.
func (t *Trial) LatestAccuracy() (float64, bool) {
	if t.latest.CumIters == 0 {
		return 0, false
	}
	return t.latest.Accuracy, true
}

// Checkpoint is a serialized trial state persisted in the shared object
// store between stages.
type Checkpoint struct {
	Trial    ID
	CumIters int
	// Accuracy is the last observed metric, carried so restored workers
	// can resume reporting without re-evaluating.
	Accuracy float64
}

// Checkpoint captures the trial's restorable state. Valid while Running or
// Paused (the symmetric DDP property means any single worker's state
// suffices; here that is the trial itself).
func (t *Trial) Checkpoint() (Checkpoint, error) {
	if t.state != Running && t.state != Paused {
		return Checkpoint{}, fmt.Errorf("trial %d: Checkpoint while %v", t.id, t.state)
	}
	acc, _ := t.LatestAccuracy()
	return Checkpoint{Trial: t.id, CumIters: t.cumIters, Accuracy: acc}, nil
}

// Store is the driver-side checkpoint store, standing in for Ray's
// shared-memory object store: checkpoints are persisted by reference and
// fetched by newly placed workers during migration. Trial IDs are dense,
// so the store is a column indexed by ID (negative IDs in a column of
// their own, see column) rather than a map.
type Store struct {
	ckpts, neg []storeSlot
	n          int
}

// storeSlot is one trial's entry: its checkpoint, if has.
type storeSlot struct {
	ck  Checkpoint
	has bool
}

// NewStore returns an empty checkpoint store sized for trials 0..n-1, so
// that storing their checkpoints never grows it. Other IDs are stored
// too, growing it on first use.
func NewStore(n int) *Store {
	s := new(Store)
	s.Reset(n)
	return s
}

// Reset empties the store and sizes it for trials 0..n-1, as NewStore(n)
// does, reusing its columns' storage when it is large enough.
func (s *Store) Reset(n int) {
	n = max(n, 0)
	ckpts := s.ckpts
	if cap(ckpts) < n {
		ckpts = make([]storeSlot, n)
	} else {
		ckpts = ckpts[:n]
		clear(ckpts)
	}
	*s = Store{ckpts: ckpts, neg: s.neg[:0]}
}

// column returns the column that holds trial id and its index there:
// ckpts[id] for id ≥ 0, neg[-id-1] for the rest.
func (s *Store) column(id ID) (*[]storeSlot, int) {
	if id >= 0 {
		return &s.ckpts, int(id)
	}
	return &s.neg, -int(id) - 1
}

// Put persists a checkpoint, replacing any previous one for the trial.
func (s *Store) Put(c Checkpoint) {
	col, i := s.column(c.Trial)
	if i >= len(*col) {
		*col = append(*col, make([]storeSlot, i+1-len(*col))...)
	}
	if !(*col)[i].has {
		s.n++
	}
	(*col)[i] = storeSlot{ck: c, has: true}
}

// Get fetches the latest checkpoint for a trial.
func (s *Store) Get(id ID) (Checkpoint, bool) {
	if col, i := s.column(id); i < len(*col) && (*col)[i].has {
		return (*col)[i].ck, true
	}
	return Checkpoint{}, false
}

// Delete drops a trial's checkpoint (after termination).
func (s *Store) Delete(id ID) {
	if col, i := s.column(id); i < len(*col) && (*col)[i].has {
		(*col)[i] = storeSlot{}
		s.n--
	}
}

// Len returns the number of stored checkpoints.
func (s *Store) Len() int { return s.n }
