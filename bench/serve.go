package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

const (
	// capacity is the shared cluster's GPUs.
	capacity = 64
	// stuck bounds how long a pass waits for experiments after its
	// window, so a wedged server fails the run instead of hanging it.
	stuck = 60 * time.Second
)

// servePass runs one pass of a serve workload on a fresh server: setup
// (corpus, server, warm-up), the timed window, then the correctness
// gate, and with keep the replay tuple of every completed experiment.
// Once the server is gone it reads the live heap again: what the heap
// lost is what the server held.
func servePass(w *workload, o opts, tr *tracer, slice int, keep bool) *passOut {
	out := serveWith(w, o, tr, slice, keep)
	out.heapGone = liveHeap()
	return out
}

// serveWith runs servePass's pass with the server alive.
func serveWith(w *workload, o opts, tr *tracer, slice int, keep bool) *passOut {
	runtime.GC()
	out := &passOut{slice: slice}
	out.setupSpeed.sample()
	t0 := time.Now()
	items, err := bodies(corpus(w.name, o.seed, slice, w.slice))
	if err != nil {
		return out.abort(err)
	}
	warm, err := bodies(corpus(w.name, warmSeed, 0, w.warmup))
	if err != nil {
		return out.abort(err)
	}
	// No DataDir: the benchmark writes only inside its checkout, and
	// journaling to disk there cost 300-700 us per serve-fleet experiment,
	// up to half its service time, so it would time the disk. The traced
	// run measures the journal layer offline.
	srv, err := serve.NewServer(serve.Config{Capacity: capacity, Policy: serve.PolicySlack})
	if err != nil {
		return out.abort(err)
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	ts := httptest.NewServer(h)
	defer srv.Close()
	defer ts.Close()
	c := newClient(ts.URL, tr)
	defer c.close()
	warmOut := &passOut{}
	serveLoop(c, w, warm, 0, len(warm), warmOut)
	out.failures += warmOut.failures
	out.problems = append(out.problems, warmOut.problems...)
	out.setup = time.Since(t0)
	out.setupSpeed.sample()

	out.use0 = readUsage()
	c.requests, c.bytes = 0, 0
	if tr != nil {
		out.spanLo = len(tr.spans)
	}
	serveLoop(c, w, items, o.window, w.slice, out)
	out.use1 = readUsage()
	if tr != nil {
		out.spanHi = len(tr.spans)
	}
	out.requests, out.respBytes = c.requests, c.bytes

	// Correctness gate, untimed.
	srv.Drain()
	submitted := len(warm) + len(out.recs)
	if vs := harness.CheckFleetInvariants(srv.FleetLog(), capacity, submitted); len(vs) > 0 {
		out.failf("fleet oracle: %d violations, first: %v", len(vs), vs[0])
	}
	if keep {
		fetchTuples(c, out)
	}
	return out
}

// serveLoop is a closed loop on one connection with one experiment in
// flight: submit, follow the event stream to the end (the client times
// submit to done), read the status w.reads times and the replay tuple
// once. A server without a journal admits each experiment as it arrives
// and runs its driver goroutine right after the submit handler, and the
// driver never blocks, so more experiments in flight would only be in
// flight from the client's side.
func serveLoop(c *client, w *workload, bodies [][]byte, window time.Duration, minItems int, out *passOut) {
	start := time.Now()
	out.start, out.end = start, start.Add(window)
	for idx := 0; time.Now().Before(out.end) || idx < minItems; idx++ {
		if time.Since(out.end) > stuck {
			out.failf("loop still running %v after the window", stuck)
			return
		}
		out.speed.probe()
		at := time.Now()
		var st serve.Status
		code, err := c.call(http.MethodPost, "/v1/experiments", bodies[idx%len(bodies)], &st)
		if err != nil || code != http.StatusAccepted {
			out.failf("submit item %d: code %d, err %v", idx, code, err)
			continue
		}
		id := st.ID
		ev, doneAt, err := c.follow(id)
		if err != nil || ev.Type != "done" {
			out.failf("events %s: %s %v %s", id, ev.Type, err, ev.Error)
			continue
		}
		for k := 0; k < w.reads; k++ {
			t0 := time.Now()
			code, err = c.call(http.MethodGet, "/v1/experiments/"+id, nil, &st)
			out.statusMs = append(out.statusMs, msSince(t0))
			if err != nil || code != http.StatusOK {
				break
			}
		}
		if err != nil || code != http.StatusOK || st.State != "done" {
			out.failf("status %s: code %d, state %q, err %v", id, code, st.State, err)
			continue
		}
		var tup serve.ReplayTuple
		if code, err = c.call(http.MethodGet, "/v1/experiments/"+id+"/replay", nil, &tup); err != nil || code != http.StatusOK {
			out.failf("replay %s: code %d, err %v", id, code, err)
			continue
		}
		if ev.Digest != st.Digest || tup.Digest != st.Digest {
			out.failf("digest mismatch for %s: event %s, status %s, replay %s", id, ev.Digest, st.Digest, tup.Digest)
			continue
		}
		rec := statusRec(idx, st)
		rec.latMs = msBetween(at, doneAt)
		rec.end = doneAt
		out.recs = append(out.recs, rec)
	}
}

// fetchTuples reads the replay tuple of every completed experiment.
func fetchTuples(c *client, out *passOut) {
	for _, r := range out.recs {
		var tup serve.ReplayTuple
		if code, err := c.call(http.MethodGet, "/v1/experiments/"+r.id+"/replay", nil, &tup); err != nil || code != http.StatusOK {
			out.failf("replay %s: code %d, err %v", r.id, code, err)
			continue
		}
		out.tuples = append(out.tuples, tup)
	}
}

// statusRec builds an experiment record from its final status.
func statusRec(idx int, st serve.Status) expRec {
	return expRec{
		idx: idx, id: st.ID,
		cost: st.Cost, predCost: st.PredictedCost, jct: st.JCT, deadline: st.Deadline, planned: st.Planned,
		queueMs: (st.StartedAt - st.SubmittedAt) * 1000,
		runMs:   (st.FinishedAt - st.StartedAt) * 1000,
	}
}

// verifyTuples replays every tuple offline and returns the failures.
func verifyTuples(tuples []serve.ReplayTuple) []string {
	var problems []string
	for _, t := range tuples {
		if _, err := serve.VerifyReplay(t); err != nil {
			problems = append(problems, fmt.Sprintf("replay %s: %v", t.ID, err))
		}
	}
	return problems
}
