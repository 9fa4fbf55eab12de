package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/harness"
	"repro/internal/journal"
)

// Config parameterizes a Server.
type Config struct {
	// Capacity is the shared simulated cluster size in GPUs. It also
	// bounds globally-live experiments, so every live experiment can hold
	// its 1-GPU minimum.
	Capacity int
	// Policy selects the arbitration rule (default PolicySlack).
	Policy Policy
	// Quota is the per-tenant admission quota (zero value: DefaultQuota).
	Quota Quota
	// DataDir, when non-empty, is the durable root: every admitted
	// experiment journals under DataDir/<tenant>/<id>/ with submission and
	// replay sidecars, and Recover resumes unfinished runs from it.
	DataDir string
	// SnapshotInterval is the journal snapshot interval in observed
	// events (trace events and replan decisions); 0 selects the default
	// of 64.
	SnapshotInterval uint64
}

// Server is the control plane: a Registry for admission, an Arbiter for
// GPUs, and one driver goroutine per live experiment stepping its
// virtual clock. HTTP handlers only read experiment state and enqueue
// submissions; everything that mutates shared resources goes through the
// registry, the arbiter, or the pump.
type Server struct {
	cfg Config
	reg *Registry
	arb *Arbiter
	mux *http.ServeMux

	// pumpMu serializes admission (NextRunnable → Admit → spawn) so two
	// pumps cannot interleave their picks.
	pumpMu sync.Mutex
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	rejects int

	// armJournal, when set (in-package tests only), sees every
	// experiment's journal writer before the run starts — the crash
	// injection point for kill/restart tests.
	armJournal func(id string, jw *journal.Writer)
}

// NewServer builds a server over a fresh registry and arbiter.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Quota == (Quota{}) {
		cfg.Quota = DefaultQuota()
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = 64
	}
	arb, err := NewArbiter(cfg.Capacity, cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistry(cfg.Quota, cfg.Capacity),
		arb: arb,
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/experiments/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/experiments/{id}/replay", s.handleReplay)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleTenant)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// Handler returns the HTTP API surface.
func (s *Server) Handler() http.Handler { return s.mux }

// FleetLog returns the arbiter's event log — the input of the
// harness fleet-fairness oracle.
func (s *Server) FleetLog() []harness.FleetEvent { return s.arb.Log() }

// Close stops admitting queued work and waits for every live driver to
// finish its (virtual-time) run.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}

// Drain blocks until every submitted experiment has reached a final
// state and the queues are empty — the test-side quiesce point before
// inspecting the fleet log.
func (s *Server) Drain() {
	for {
		exps := s.reg.All()
		for _, e := range exps {
			e.Wait()
		}
		live, queued, total := s.reg.Stats()
		if live == 0 && queued == 0 && total == len(exps) {
			return
		}
	}
}

// errBody is the JSON error envelope.
type errBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// writeJSON writes a JSON response; an encode error means the client
// went away mid-write and there is nothing left to do on this
// connection.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}

// handleSubmit is POST /v1/experiments: validate, enqueue (429 +
// Retry-After on a full tenant queue), and pump the admission loop.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub, err := DecodeSubmission(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: "bad submission: " + err.Error()})
		return
	}
	if err := sub.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	if sub.MaxGPUs > s.cfg.Quota.MaxGPUs {
		writeJSON(w, http.StatusBadRequest, errBody{
			Error: fmt.Sprintf("max_gpus %d exceeds tenant quota %d", sub.MaxGPUs, s.cfg.Quota.MaxGPUs),
		})
		return
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "server shutting down"})
		return
	}
	// The submit event is recorded inside the registry lock, before the
	// experiment becomes visible to any pump, so the fleet log never shows
	// an admission without its submission.
	exp, err := s.reg.Submit(sub, func(e *Experiment) {
		s.arb.Note("submit", e.ID, sub.Tenant)
	})
	var bl *ErrBacklog
	if errors.As(err, &bl) {
		s.mu.Lock()
		s.rejects++
		rid := fmt.Sprintf("reject-%04d", s.rejects)
		s.mu.Unlock()
		s.arb.Note("reject", rid, sub.Tenant)
		w.Header().Set("Retry-After", strconv.Itoa(bl.RetryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, errBody{
			Error: bl.Error(), RetryAfter: bl.RetryAfterSeconds,
		})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, exp.StatusIn(s.reg))
	s.pump()
}

// handleStatus is GET /v1/experiments/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown experiment"})
		return
	}
	writeJSON(w, http.StatusOK, exp.StatusIn(s.reg))
}

// handleEvents is GET /v1/experiments/{id}/events: the event feed as
// chunked ndjson, streamed live until the experiment reaches a final
// state or the client disconnects. ?from=N resumes from sequence N, which
// may be at most the number of events published so far (N equal to it
// waits for the next event); a larger N is a 400. Each pass writes every
// event published so far and flushes once, before it waits, so a live
// client sees each event as soon as the handler catches up, and a
// finished feed leaves in one write when the handler returns.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown experiment"})
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errBody{Error: "bad from parameter"})
			return
		}
		from = n
	}
	if from > exp.published() {
		writeJSON(w, http.StatusBadRequest, errBody{Error: "from beyond end of feed"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for i := from; ; {
		evs, wake, final := exp.feed(i)
		for k := range evs {
			if err := enc.Encode(&evs[k]); err != nil {
				return // client gone
			}
		}
		if final {
			return
		}
		i += len(evs)
		// Caught up: deliver what is written (on a resume at the feed's
		// end, just the headers) before waiting. The controller reaches
		// a Flusher behind any wrapper that implements Unwrap; a writer
		// with none streams when the handler returns.
		if err := http.NewResponseController(w).Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return // client gone
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		}
	}
}

// handleReplay is GET /v1/experiments/{id}/replay: the completed
// experiment's (seed, spec, decisions) tuple — 409 until it is done.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown experiment"})
		return
	}
	t, ok := exp.Tuple()
	if !ok {
		writeJSON(w, http.StatusConflict, errBody{Error: "experiment not completed"})
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handleTenant is GET /v1/tenants/{tenant}.
func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !journal.ValidName(name) {
		writeJSON(w, http.StatusBadRequest, errBody{Error: "invalid tenant name"})
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Tenant(name))
}

// FleetStats is the JSON body of GET /v1/stats.
type FleetStats struct {
	Capacity int    `json:"capacity"`
	Policy   string `json:"policy"`
	InUse    int    `json:"in_use"`
	Free     int    `json:"free"`
	Live     int    `json:"live"`
	Queued   int    `json:"queued"`
	Total    int    `json:"total"`
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	live, queued, total := s.reg.Stats()
	writeJSON(w, http.StatusOK, FleetStats{
		Capacity: s.arb.Capacity(),
		Policy:   s.cfg.Policy.String(),
		InUse:    s.arb.InUse(),
		Free:     s.arb.Free(),
		Live:     live,
		Queued:   queued,
		Total:    total,
	})
}

// pump runs the admission loop: while a GPU is free and the registry has
// runnable work, admit the next experiment and spawn its driver. Called
// after every submission, grant (a shrunken hold frees GPUs), and
// completion. pumpMu serializes picks; the Free check races only with
// concurrent grants, and a lost race requeues the pick at the head of
// its tenant queue (FIFO preserved) to retry on the next pump.
func (s *Server) pump() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	for {
		if s.arb.Free() < 1 {
			return
		}
		exp := s.reg.NextRunnable()
		if exp == nil {
			return
		}
		if err := s.arb.Admit(exp.ID, exp.Sub.Tenant); err != nil {
			s.reg.requeueFront(exp)
			return
		}
		s.wg.Add(1)
		go s.drive(exp)
	}
}

// drive runs one admitted experiment start to finish.
func (s *Server) drive(exp *Experiment) {
	defer s.wg.Done()
	var err error
	defer s.settle(exp, &err)
	// BuildScenario cannot fail here (submissions are validated before
	// enqueue); settle fails the experiment if it does.
	sc, err := BuildScenario(exp.Sub)
	if err != nil {
		return
	}
	jw, dir, cleanup, err := s.openJournal(exp)
	if err != nil {
		return
	}
	defer cleanup()
	err = s.run(exp, sc, jw, dir, nil)
}

// settle ends an admitted experiment's driver, drive or resume, which
// defer it before anything else, so it runs after their other deferred
// calls (the journal is closed by then). It recovers a panic in the
// driver, so that one experiment's panic fails only that experiment,
// then fails exp with the panic's value or with *err, if either,
// durably (persistFailure), and releases exp's admission: a driver
// releases it here and nowhere else.
func (s *Server) settle(exp *Experiment, err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
	if *err != nil {
		exp.fail(*err)
		s.persistFailure(exp, *err)
	}
	s.finish(exp)
}

// finish releases an experiment's admission: arbiter hold, registry live
// slot, and a pump for whatever the freed GPUs can now admit.
func (s *Server) finish(exp *Experiment) {
	s.arb.Done(exp.ID)
	s.reg.Complete(exp)
	s.pump()
}

// openJournal prepares the experiment's durable state under
// DataDir/<tenant>/<id>/: the submission sidecar and a file-backed
// journal writer. With no DataDir everything returns zero values.
func (s *Server) openJournal(exp *Experiment) (*journal.Writer, string, func(), error) {
	if s.cfg.DataDir == "" {
		return nil, "", func() {}, nil
	}
	dir, err := journal.RunDir(s.cfg.DataDir, exp.Sub.Tenant, exp.ID)
	if err != nil {
		return nil, "", nil, err
	}
	if err := writeSidecar(filepath.Join(dir, "submission.json"), subSidecar{ID: exp.ID, Submission: exp.Sub}); err != nil {
		return nil, "", nil, err
	}
	fb, err := journal.NewFileBackend(dir)
	if err != nil {
		return nil, "", nil, err
	}
	jw := journal.NewWriter(fb, s.cfg.SnapshotInterval)
	cleanup := func() {
		if err := fb.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rbserve: closing journal:", err)
		}
	}
	return jw, dir, cleanup, nil
}

// run drives exp's scenario on its own virtual clock, arbitrating every
// stage boundary through the shared arbiter, and returns the error that
// fails it, if any. script, when non-empty, replays a recovered
// journal's grant prefix before going live — the resumed run's
// re-execution consumes exactly the grants the crashed generation was
// given, then fresh stages arbitrate normally.
func (s *Server) run(exp *Experiment, sc harness.Scenario, jw *journal.Writer, dir string, script []harness.GrantDecision) error {
	if jw != nil && s.armJournal != nil {
		s.armJournal(exp.ID, jw)
	}
	si := 0
	gate := func(req harness.GrantRequest) int {
		var g int
		if si < len(script) {
			g = script[si].Granted
			si++
		} else {
			slack := req.Deadline - req.Now - req.PredictedRemaining
			live, err := s.arb.Exchange(exp.ID, req.Stage, req.Want, slack)
			if err != nil {
				// Unreachable while the driver holds the admission; grant
				// in full rather than wedge the run.
				live = req.Want
			}
			g = live
		}
		exp.noteGrant(harness.GrantDecision{Stage: req.Stage, Want: req.Want, Granted: g, At: req.Now})
		// A shrunken hold may have freed GPUs: let the pump admit into them.
		s.pump()
		return g
	}
	exp.markAdmitted()
	run, err := harness.StartScenario(sc, harness.RunConfig{Journal: jw, Gate: gate})
	if err != nil {
		return err
	}
	exp.notePlan(run)
	// Mirror live progress every progressEvery virtual events: cheap
	// enough to keep the status endpoint fresh without a lock per event.
	const progressEvery = 256
	for !run.Done() {
		if err := run.Step(); err != nil {
			return err
		}
		if st := run.Steps(); st%progressEvery == 0 {
			exp.progress(run.Stage(), run.Now(), run.CostSoFar())
		}
	}
	a, err := run.Finish()
	if err != nil {
		return err
	}
	d := harness.ComputeDigest(a)
	exp.complete(a, d)
	if dir != "" {
		if t, ok := exp.Tuple(); ok {
			if err := writeSidecar(filepath.Join(dir, "replay.json"), t); err != nil {
				fmt.Fprintln(os.Stderr, "rbserve: writing replay sidecar:", err)
			}
		}
	}
	// The digest, the experiment record and the sidecar copied what they
	// keep out of the artifacts: the run's working set can serve the next
	// experiment.
	run.Release()
	return nil
}

// subSidecar is the submission.json schema: the experiment's identity
// half of the replay tuple, durable before the first journal record.
type subSidecar struct {
	ID         string     `json:"id"`
	Submission Submission `json:"submission"`
}

// writeSidecar marshals v to path atomically: it writes a temporary
// file beside path, syncs it, renames it over path and syncs the
// directory, so a crash leaves the old sidecar or the new one whole,
// never a torn one.
func writeSidecar(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return journal.SyncDir(filepath.Dir(path))
}
