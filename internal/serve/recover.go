package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/journal"
)

// RecoverReport summarizes one restart's recovery pass.
type RecoverReport struct {
	// Adopted counts completed runs re-registered from their replay
	// sidecars (no re-execution).
	Adopted int
	// Resumed counts unfinished runs re-driven to completion by verified
	// re-execution of their journals.
	Resumed int
	// Damaged lists experiment ids whose journals had truncated damage
	// (torn tail, corrupt suffix) — recovered anyway from the trusted
	// prefix.
	Damaged []string
	// Failed lists experiment ids whose recovery could not complete
	// (divergence, an undecodable submission or failure sidecar) or that
	// had failed in an earlier generation (failed.json present, adopted
	// without re-running); they are registered as failed. A run whose
	// submission sidecar is undecodable is listed by its directory's
	// name.
	Failed []string
}

// Recover scans DataDir for experiments from previous process
// generations and brings the server back to a consistent state:
// completed runs (replay.json present) are adopted as done, failed runs
// (failed.json present) as failed, and unfinished runs are resumed by
// verified re-execution. An undecodable replay.json counts as absent, so
// its run resumes and rewrites it; an undecodable failed.json or
// submission.json fails its run. Only an unreadable DataDir fails the
// whole pass. The journaled
// prefix (including every Grant record) is byte-compared while the run
// is re-driven, then fresh stages arbitrate live. Resumption is
// sequential in (tenant, id) order, so recovered grant appends are
// deterministic given the journals. Call before serving traffic.
func (s *Server) Recover() (RecoverReport, error) {
	var rep RecoverReport
	if s.cfg.DataDir == "" {
		return rep, nil
	}
	refs, err := journal.ListRuns(s.cfg.DataDir)
	if err != nil {
		return rep, err
	}
	for _, ref := range refs {
		var (
			sc subSidecar
			t  ReplayTuple
			f  failSidecar
		)
		ok, err := readSidecar(ref, "submission.json", &sc)
		if err != nil {
			s.adoptFailed(&rep, newExperiment(ref.Run, Submission{Tenant: ref.Tenant}), err)
			continue
		}
		if !ok {
			// A directory with no submission sidecar never held an
			// admitted experiment; skip it.
			continue
		}
		if ok, err := readSidecar(ref, "replay.json", &t); ok && err == nil {
			s.reg.adopt(newRecoveredDone(t), false)
			rep.Adopted++
			continue
		}
		if ok, err := readSidecar(ref, "failed.json", &f); ok || err != nil {
			if err == nil {
				err = errors.New(f.Error)
			}
			s.adoptFailed(&rep, newExperiment(sc.ID, sc.Submission), err)
			continue
		}
		damaged, err := s.resume(sc)
		if damaged {
			rep.Damaged = append(rep.Damaged, sc.ID)
		}
		if err != nil {
			rep.Failed = append(rep.Failed, sc.ID)
			continue
		}
		rep.Resumed++
	}
	return rep, nil
}

// adoptFailed registers exp as failed with err and lists it in rep.
func (s *Server) adoptFailed(rep *RecoverReport, exp *Experiment, err error) {
	exp.fail(err)
	s.reg.adopt(exp, false)
	rep.Failed = append(rep.Failed, exp.ID)
}

// resume re-drives one unfinished run from its journal. The recovered
// experiment is admitted into the live arbiter; the journaled grant
// prefix is scripted (and byte-verified by the resumed writer), and any
// stages beyond the crash point arbitrate live. A panic in the run fails
// this experiment only, as in drive.
func (s *Server) resume(side subSidecar) (damaged bool, err error) {
	exp := newExperiment(side.ID, side.Submission)
	s.reg.adopt(exp, true)
	s.arb.Note("submit", exp.ID, exp.Sub.Tenant)
	if err := s.arb.Admit(exp.ID, exp.Sub.Tenant); err != nil {
		// Sequential resumption on a quiesced server: only possible when
		// more unfinished runs exist than cluster GPUs. Fail this run
		// rather than wedge recovery.
		exp.fail(err)
		s.reg.Complete(exp)
		return false, err
	}
	defer s.settle(exp, &err)
	dir, err := journal.RunDir(s.cfg.DataDir, exp.Sub.Tenant, exp.ID)
	if err != nil {
		return false, err
	}
	fb, err := journal.NewFileBackend(dir)
	if err != nil {
		return false, err
	}
	defer func() {
		if cerr := fb.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "rbserve: closing recovered journal:", cerr)
		}
	}()
	script, err := grantPrefix(fb)
	if err != nil {
		return false, err
	}
	jw, hdr, damage, err := journal.Resume(fb, s.cfg.SnapshotInterval)
	damaged = damage != ""
	if err != nil {
		return damaged, err
	}
	if err := side.Submission.Validate(); err != nil {
		return damaged, err
	}
	sc, err := BuildScenario(side.Submission)
	if err != nil {
		return damaged, err
	}
	if hdr != nil && (hdr.BatchSeed != sc.BatchSeed || hdr.Index != int64(sc.Index)) {
		return damaged, fmt.Errorf("serve: journal header (seed=%d index=%d) does not match submission (seed=%d index=%d)",
			hdr.BatchSeed, hdr.Index, sc.BatchSeed, sc.Index)
	}
	return damaged, s.run(exp, sc, jw, dir, script)
}

// grantPrefix decodes the trusted writes of a crashed journal and
// returns its Grant sequence — the arbitration decisions the previous
// generation's run consumed before dying. The resumed re-execution
// replays exactly these.
func grantPrefix(b journal.Backend) ([]harness.GrantDecision, error) {
	raw, err := b.Load()
	if err != nil {
		return nil, err
	}
	var out []harness.GrantDecision
	for _, payload := range raw.Writes {
		rec, err := journal.DecodeRecord(payload)
		if err != nil {
			// Load stops before damage; an undecodable write here is
			// real corruption, or a journal of another Version.
			return nil, fmt.Errorf("serve: grant prescan: %w", err)
		}
		if g, ok := rec.(*journal.Grant); ok {
			out = append(out, harness.GrantDecision{
				Stage: int(g.Stage), Want: int(g.Want), Granted: int(g.Granted), At: g.At,
			})
		}
	}
	return out, nil
}

// failSidecar is the failed.json schema: why an experiment failed.
type failSidecar struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// persistFailure writes exp's failed.json sidecar for Recover to adopt.
// An injected journal.ErrCrash models the process dying, which writes
// nothing, so that run resumes.
func (s *Server) persistFailure(exp *Experiment, err error) {
	if s.cfg.DataDir == "" || errors.Is(err, journal.ErrCrash) || !journal.ValidName(exp.Sub.Tenant) {
		return
	}
	path := filepath.Join(s.cfg.DataDir, exp.Sub.Tenant, exp.ID, "failed.json")
	if werr := writeSidecar(path, failSidecar{ID: exp.ID, Error: err.Error()}); werr != nil && !errors.Is(werr, os.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "rbserve: writing failure sidecar:", werr)
	}
}

// readSidecar decodes ref's sidecar name (submission.json, replay.json
// or failed.json) into v and reports whether it exists.
func readSidecar(ref journal.RunRef, name string, v any) (bool, error) {
	data, err := os.ReadFile(filepath.Join(ref.Dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return false, fmt.Errorf("serve: recover %s/%s: %s: %w", ref.Tenant, ref.Run, name, err)
	}
	return true, nil
}
