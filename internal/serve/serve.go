// Package serve is the multi-tenant tuning-as-a-service control plane:
// a long-running HTTP/JSON API (submit experiments, query live status,
// stream stage/grant events, fetch replay tuples) in front of a
// cross-experiment arbiter that admits tenants, enforces per-tenant
// quotas and bounded submission queues, and reallocates one shared
// simulated cluster across experiments at stage boundaries by marginal
// deadline slack (HyperSched-style: steal from slack-rich jobs, feed
// deadline-critical ones).
//
// The determinism boundary is explicit. The HTTP layer lives in wall
// time — request arrival order, goroutine interleaving, and therefore
// the arbiter's grant sequence are not reproducible run to run. But
// every admitted experiment runs on its own seeded virtual clock, and
// the only nondeterministic input it ever consumes is that grant
// sequence, injected at stage boundaries through the harness grant gate
// and recorded — in the experiment's journal (Grant records) and in its
// replay tuple. A completed experiment's (seed, spec, grants) tuple
// therefore replays offline to a bit-identical digest: VerifyReplay (and
// `rbfuzz -serve-replay`) re-runs the scenario with the recorded grants
// scripted and compares digests. Everything below the gate stays
// rbvet-taint-clean; the package's only wall-clock read is the annotated
// ops-surface helper in wall.go.
package serve

import (
	"fmt"
	"strconv"

	"repro/internal/harness"
)

// ReplayTuple is the server-reported (seed, spec, decisions) record of a
// completed experiment: everything needed to re-derive its digest
// offline, away from the live arbiter and the wall clock.
type ReplayTuple struct {
	ID         string                  `json:"id"`
	Submission Submission              `json:"submission"`
	Grants     []harness.GrantDecision `json:"grants"`
	Digest     string                  `json:"digest"`
	JCT        float64                 `json:"jct"`
	Cost       float64                 `json:"cost"`
}

// ScriptedGrants is a gate that re-issues a recorded grant sequence in
// order. Requests past the script's end are granted in full (a correct
// replay never reaches them: the script covers every stage).
func ScriptedGrants(grants []harness.GrantDecision) harness.GrantFn {
	i := 0
	return func(req harness.GrantRequest) int {
		if i < len(grants) {
			g := grants[i].Granted
			i++
			return g
		}
		return req.Want
	}
}

// VerifyReplay re-runs a replay tuple offline — the recorded grants
// scripted into a fresh gated run — and checks the digest matches the
// server-reported one bit for bit. It returns the recomputed digest.
func VerifyReplay(t ReplayTuple) (harness.Digest, error) {
	if err := t.Submission.Validate(); err != nil {
		return 0, fmt.Errorf("serve: submission: %w", err)
	}
	sc, err := BuildScenario(t.Submission)
	if err != nil {
		return 0, err
	}
	a, err := harness.Run(sc, harness.RunConfig{Gate: ScriptedGrants(t.Grants)})
	if err != nil {
		return 0, fmt.Errorf("serve: replay run: %w", err)
	}
	if got, want := len(a.Grants), len(t.Grants); got != want {
		return 0, fmt.Errorf("serve: replay consumed %d grants, tuple records %d", got, want)
	}
	d := harness.ComputeDigest(a)
	want, err := strconv.ParseUint(t.Digest, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: tuple digest %q: %w", t.Digest, err)
	}
	if uint64(d) != want {
		return 0, fmt.Errorf("serve: replay digest %016x != recorded digest %s", uint64(d), t.Digest)
	}
	return d, nil
}

// DigestString renders a digest the way replay tuples store it.
func DigestString(d harness.Digest) string { return fmt.Sprintf("%016x", uint64(d)) }
