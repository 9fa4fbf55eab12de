package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/harness"
	"repro/internal/journal"
)

// Config parameterizes a Server.
type Config struct {
	// Capacity is the shared simulated cluster size in GPUs. Every live
	// experiment holds at least 1 GPU, so it also bounds how many are
	// live at once.
	Capacity int
	// Policy selects the arbitration rule (default PolicySlack).
	Policy Policy
	// Quota is the per-tenant admission quota (zero value: DefaultQuota).
	Quota Quota
	// DataDir, when non-empty, is the durable root: every accepted
	// experiment's submission sidecar is written under
	// DataDir/<tenant>/<id>/ before its 202, an admitted one journals
	// there, and Recover requeues or resumes unfinished runs from it.
	DataDir string
	// SnapshotInterval is the journal snapshot interval in observed
	// events (trace events and replan decisions); 0 selects the default
	// of 64.
	SnapshotInterval uint64
}

// Server is the control plane: one admission ledger (tenant queues,
// experiment index, GPU holds, fleet log) and one driver goroutine per
// live experiment stepping its virtual clock. HTTP handlers only read
// experiment state and submit; every admission decision is one call
// into the ledger.
type Server struct {
	cfg Config
	led *ledger
	mux *http.ServeMux

	// armJournal, when set (in-package tests only), sees every
	// experiment's journal writer before the run starts — the crash
	// injection point for kill/restart tests.
	armJournal func(id string, jw *journal.Writer)
}

// NewServer builds a server over a fresh ledger.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Quota == (Quota{}) {
		cfg.Quota = DefaultQuota()
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = 64
	}
	led, err := newLedger(cfg.Capacity, cfg.Policy, cfg.Quota)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, led: led, mux: http.NewServeMux()}
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

// FleetLog returns the ledger's event log — the input of the harness
// fleet-fairness oracle.
func (s *Server) FleetLog() []harness.FleetEvent { return s.led.fleetLog() }

// Close stops admitting queued work and waits for every live driver to
// finish its (virtual-time) run. Once it returns, no experiment is
// admitted and no driver starts.
func (s *Server) Close() { s.led.close() }

// Drain blocks until every submitted experiment has reached a final
// state and the queues are empty — the test-side quiesce point before
// inspecting the fleet log.
func (s *Server) Drain() {
	for {
		exps := s.led.all()
		for _, e := range exps {
			e.Wait()
		}
		st := s.led.stats()
		if st.Live == 0 && st.Queued == 0 && st.Total == len(exps) {
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
	exp, err := s.led.submit(sub, s.persistSubmission)
	var bl *ErrBacklog
	switch {
	case errors.Is(err, errClosed):
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "server shutting down"})
		return
	case errors.As(err, &bl):
		w.Header().Set("Retry-After", strconv.Itoa(bl.RetryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, errBody{
			Error: bl.Error(), RetryAfter: bl.RetryAfterSeconds,
		})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(exp))
	s.pump()
}

// handleStatus is GET /v1/experiments/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.led.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown experiment"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(exp))
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
	exp, ok := s.led.get(r.PathValue("id"))
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
	exp, ok := s.led.get(r.PathValue("id"))
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
	writeJSON(w, http.StatusOK, s.led.tenant(name))
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.led.stats())
}

// status snapshots exp for the status endpoint, with its queue position
// while it is queued.
func (s *Server) status(exp *Experiment) Status {
	st := exp.status()
	if st.State == StateQueued.String() {
		st.QueuePos = s.led.queuePos(exp)
	}
	return st
}

// pump admits queued experiments while a GPU is free and starts a
// driver for each. Called after every submission, grant (a shrunken
// hold frees GPUs), and completion.
func (s *Server) pump() {
	for exp := s.led.admit(); exp != nil; exp = s.led.admit() {
		go s.drive(exp)
	}
}

// drive runs one admitted experiment start to finish.
func (s *Server) drive(exp *Experiment) {
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
// durably (persistFailure), releases exp's admission — a driver
// releases it here and nowhere else — and pumps whatever the freed GPUs
// can now admit.
func (s *Server) settle(exp *Experiment, err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
	if *err != nil {
		exp.fail(*err)
		s.persistFailure(exp, *err)
	}
	s.led.release(exp)
	s.pump()
}

// persistSubmission writes exp's submission sidecar under
// DataDir/<tenant>/<id>/ (nothing without a DataDir). The ledger runs
// it inside submit, so an experiment is durable before anything can
// admit it or its client hears 202, and a restart finds it even if it
// never started.
func (s *Server) persistSubmission(exp *Experiment) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	dir, err := journal.RunDir(s.cfg.DataDir, exp.Sub.Tenant, exp.ID)
	if err != nil {
		return err
	}
	return writeSidecar(filepath.Join(dir, "submission.json"), subSidecar{ID: exp.ID, Submission: exp.Sub})
}

// openJournal opens the experiment's file-backed journal writer under
// DataDir/<tenant>/<id>/, beside its submission sidecar. With no
// DataDir everything returns zero values.
func (s *Server) openJournal(exp *Experiment) (*journal.Writer, string, func(), error) {
	if s.cfg.DataDir == "" {
		return nil, "", func() {}, nil
	}
	dir, err := journal.RunDir(s.cfg.DataDir, exp.Sub.Tenant, exp.ID)
	if err != nil {
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
// stage boundary through the ledger, and returns the error that
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
			live, err := s.led.exchange(exp.ID, req.Stage, req.Want, slack)
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
// half of the replay tuple, durable before its client hears 202.
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
