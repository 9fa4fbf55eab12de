package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/journal"
)

// newTestServer builds a server and its HTTP front end, both torn down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postSub submits sub and decodes the response.
func postSub(t *testing.T, ts *httptest.Server, sub Submission) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// getJSON fetches path and decodes into v, returning the status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func smallSub(tenant string, seed uint64) Submission {
	return Submission{
		Tenant: tenant, Model: "resnet50",
		Stages: [][2]int{{4, 1}, {2, 1}},
		Seed:   seed, MaxGPUs: 4, DeadlineFactor: 2,
	}
}

// unboundedDurations are the three submissions whose durations once
// passed validation and then overflowed the virtual clock mid-run, each
// with the field its 400 must name.
func unboundedDurations() map[string]Submission {
	restore := 1e308
	restored := smallSub("acme", 1)
	restored.RestoreSeconds = &restore
	slow := smallSub("acme", 1)
	slow.Cloud = &CloudSpec{
		QueueDelay:  &DistSpec{Type: "deterministic", Value: 1e308},
		InitLatency: &DistSpec{Type: "deterministic", Value: 1e308},
	}
	preempted := smallSub("acme", 1)
	preempted.Cloud = &CloudSpec{Faults: &FaultSpec{PreemptionMeanSeconds: 1e308}}
	return map[string]Submission{
		"restore_seconds":         restored,
		"queue_delay":             slow,
		"preemption_mean_seconds": preempted,
	}
}

// TestServerSubmitLifecycle: one experiment end to end over HTTP —
// accepted, executed, streamed, and its replay tuple verifies offline.
func TestServerSubmitLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 4})
	resp, body := postSub(t, ts, smallSub("acme", 7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Tenant != "acme" {
		t.Fatalf("accepted status = %+v", st)
	}
	s.Drain()

	if code := getJSON(t, ts, "/v1/experiments/"+st.ID, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.State != "done" || st.Digest == "" || st.JCT <= 0 || st.Grants != 2 {
		t.Fatalf("final status = %+v", st)
	}

	// The full event feed: queued, admitted, grant(stage 0), plan, …, done.
	resp, err := http.Get(ts.URL + "/v1/experiments/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 5 {
		t.Fatalf("feed has %d events: %+v", len(events), events)
	}
	for i, wantType := range []string{"queued", "admitted", "grant", "plan"} {
		if events[i].Seq != i || events[i].Type != wantType {
			t.Fatalf("event %d = %+v, want type %s", i, events[i], wantType)
		}
	}
	grants := 0
	for _, ev := range events {
		if ev.Type == "grant" {
			grants++
		}
	}
	if grants != 2 {
		t.Fatalf("%d grant events for 2 stages", grants)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Digest != st.Digest {
		t.Fatalf("last event = %+v", last)
	}

	// ?from resumes mid-feed.
	resp2, err := http.Get(ts.URL + "/v1/experiments/" + st.ID + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	if !sc2.Scan() {
		t.Fatal("empty resumed feed")
	}
	var first Event
	if err := json.Unmarshal(sc2.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 2 {
		t.Fatalf("resumed feed starts at seq %d", first.Seq)
	}

	// The replay tuple round-trips to a bit-identical digest offline.
	var tup ReplayTuple
	if code := getJSON(t, ts, "/v1/experiments/"+st.ID+"/replay", &tup); code != http.StatusOK {
		t.Fatalf("replay: %d", code)
	}
	if _, err := VerifyReplay(tup); err != nil {
		t.Fatal(err)
	}

	// Fleet stats reflect the drained state.
	var fs FleetStats
	if code := getJSON(t, ts, "/v1/stats", &fs); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if fs.Capacity != 4 || fs.Live != 0 || fs.Total != 1 || fs.InUse != 0 {
		t.Fatalf("stats = %+v", fs)
	}
	var tn TenantStats
	if code := getJSON(t, ts, "/v1/tenants/acme", &tn); code != http.StatusOK {
		t.Fatalf("tenant: %d", code)
	}
	if tn.Completed != 1 {
		t.Fatalf("tenant stats = %+v", tn)
	}
}

// TestServerRejections: malformed and out-of-quota requests are refused
// with the right codes.
func TestServerRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 2, Quota: Quota{MaxQueued: 2, MaxLive: 1, MaxGPUs: 4}})

	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}

	// The decoder is strict: a misspelt field is not dropped for its
	// default, and a second object after the first is not ignored.
	ok, err := json.Marshal(smallSub("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"misspelt field": append(bytes.TrimSuffix(ok, []byte("}")), []byte(`,"estimater":"analytic"}`)...),
		"trailing data":  append(append(ok, ' '), ok...),
	} {
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d for %s", name, resp.StatusCode, body)
		}
	}

	bad := smallSub("acme", 1)
	bad.Model = "alexnet9000"
	if resp, body := postSub(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model: %d %s", resp.StatusCode, body)
	}

	retired := smallSub("acme", 1)
	retired.Estimator = "full"
	if resp, body := postSub(t, ts, retired); resp.StatusCode != http.StatusBadRequest ||
		!bytes.Contains(body, []byte("segment")) || !bytes.Contains(body, []byte("analytic")) {
		t.Fatalf("retired estimator: %d %s", resp.StatusCode, body)
	}

	// A cloud duration past cloud.MaxSeconds gets a 400 naming its
	// field, not a run that overflows the virtual clock.
	for field, sub := range unboundedDurations() {
		if resp, body := postSub(t, ts, sub); resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(field)) {
			t.Fatalf("%s = 1e308: %d %s", field, resp.StatusCode, body)
		}
	}

	greedy := smallSub("acme", 1)
	greedy.MaxGPUs = 64 // above the tenant quota
	if resp, body := postSub(t, ts, greedy); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-quota gpus: %d %s", resp.StatusCode, body)
	}
	// Replay verification and recovery see no tenant quota, so Validate
	// itself bounds max_gpus: a replayed submission past the limit fails
	// before any plan search.
	huge := smallSub("acme", 1)
	huge.MaxGPUs = maxGPUs
	if err := huge.Validate(); err != nil {
		t.Fatalf("max_gpus at the limit: %v", err)
	}
	huge.MaxGPUs = maxGPUs + 1
	if _, err := VerifyReplay(ReplayTuple{Submission: huge}); err == nil || !strings.Contains(err.Error(), "max_gpus") {
		t.Fatalf("replay past the max_gpus limit: %v", err)
	}

	if code := getJSON(t, ts, "/v1/experiments/exp-9999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown status: %d", code)
	}
	if code := getJSON(t, ts, "/v1/experiments/exp-9999/events", nil); code != http.StatusNotFound {
		t.Fatalf("unknown events: %d", code)
	}
	if code := getJSON(t, ts, "/v1/experiments/exp-9999/replay", nil); code != http.StatusNotFound {
		t.Fatalf("unknown replay: %d", code)
	}
	if code := getJSON(t, ts, "/v1/tenants/Not-Valid", nil); code != http.StatusBadRequest {
		t.Fatalf("invalid tenant name: %d", code)
	}
}

// TestServerHeavyTailedQueueDelay: a "pareto" queue delay without a
// finite variance (α = 1.5) gets a 400 naming queue_delay, since the
// planner has no moments to plan it on; one with a finite variance
// (α = 2.5) is accepted, planned and run to done.
func TestServerHeavyTailedQueueDelay(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 2})
	sub := smallSub("acme", 11)
	sub.DeadlineFactor = 10 // room for the queue delay the static bound leaves out
	sub.Cloud = &CloudSpec{QueueDelay: &DistSpec{Type: "pareto", Scale: 2, Alpha: 1.5}}
	if resp, body := postSub(t, ts, sub); resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("queue_delay")) {
		t.Fatalf("pareto 1.5 queue delay: %d %s, want a 400 naming queue_delay", resp.StatusCode, body)
	}
	sub.Cloud.QueueDelay.Alpha = 2.5
	resp, body := postSub(t, ts, sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pareto 2.5 queue delay: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if code := getJSON(t, ts, "/v1/experiments/"+st.ID, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.State != "done" || !st.Planned {
		t.Fatalf("pareto 2.5 queue delay: final status %+v, want a planned run done", st)
	}
}

// TestServerFullSchemaJournaledReplay: a submission off the idealised
// cloud — spot billing, provider faults, an exponential queue, the
// profiler, the static policy and a batch override — runs through the
// server with the journal on, and its replay tuple verifies offline.
func TestServerFullSchemaJournaledReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 8, DataDir: t.TempDir()})
	sub := smallSub("acme", 11)
	sub.Model, sub.Policy, sub.Batch, sub.UseProfiler = "resnet101", "static", 64, true
	sub.Cloud = &CloudSpec{
		Market:     "spot",
		QueueDelay: &DistSpec{Type: "exponential", Mean: 8},
		Faults:     &FaultSpec{ProvisionFailureProb: 0.2, PreemptionMeanSeconds: 300},
	}
	resp, body := postSub(t, ts, sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if code := getJSON(t, ts, "/v1/experiments/"+st.ID, &st); code != http.StatusOK || st.State != "done" {
		t.Fatalf("status %d: %+v", code, st)
	}
	var tup ReplayTuple
	if code := getJSON(t, ts, "/v1/experiments/"+st.ID+"/replay", &tup); code != http.StatusOK {
		t.Fatalf("replay: %d", code)
	}
	if !reflect.DeepEqual(tup.Submission, sub) {
		t.Fatalf("replay tuple holds %+v, submitted %+v", tup.Submission, sub)
	}
	d, err := VerifyReplay(tup)
	if err != nil {
		t.Fatal(err)
	}
	if DigestString(d) != st.Digest {
		t.Fatalf("replayed digest %s, served %s", DigestString(d), st.Digest)
	}
}

// TestServerReplayConflictWhileRunning: the replay tuple is unavailable
// (409) until the experiment completes.
func TestServerReplayConflictWhileRunning(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Capacity: 2, DataDir: t.TempDir()})
	admitted := make(chan string, 1)
	s.armJournal = func(id string, jw *journal.Writer) {
		admitted <- id
		<-release
	}
	resp, body := postSub(t, ts, smallSub("acme", 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := <-admitted
	if code := getJSON(t, ts, "/v1/experiments/"+id+"/replay", nil); code != http.StatusConflict {
		t.Fatalf("replay while running: %d", code)
	}
	// Bad ?from on a live feed.
	if code := getJSON(t, ts, "/v1/experiments/"+id+"/events?from=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad from: %d", code)
	}
	close(release)
	s.Drain()
	var tup ReplayTuple
	if code := getJSON(t, ts, "/v1/experiments/"+id+"/replay", &tup); code != http.StatusOK {
		t.Fatalf("replay after done: %d", code)
	}
	if _, err := VerifyReplay(tup); err != nil {
		t.Fatal(err)
	}
}

// TestServerBackpressure is the queue-overflow contract: a full tenant
// queue returns 429 with a Retry-After hint, the overflowing submission
// is not enqueued, other tenants are unaffected, and once the backlog
// drains every admitted experiment completes exactly once in per-tenant
// FIFO order — checked by the fleet oracle over the arbiter's log.
func TestServerBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Capacity: 4,
		Quota:    Quota{MaxQueued: 3, MaxLive: 1, MaxGPUs: 8},
		DataDir:  t.TempDir(),
	})
	s.armJournal = func(id string, jw *journal.Writer) { <-release }

	// First submission admits immediately (and parks in armJournal,
	// holding its tenant's single live slot).
	var ids []string
	for i := 0; i < 4; i++ {
		resp, body := postSub(t, ts, smallSub("acme", uint64(10+i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Queue now holds 3 (MaxQueued): the next submission overflows.
	resp, body := postSub(t, ts, smallSub("acme", 99))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q", ra)
	}
	var eb struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfter < 1 || eb.Error == "" {
		t.Fatalf("429 body = %s (%v)", body, err)
	}

	// Another tenant's queue is untouched by acme's backlog.
	resp, body = postSub(t, ts, smallSub("beta", 50))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit: %d %s", resp.StatusCode, body)
	}
	var bst Status
	if err := json.Unmarshal(body, &bst); err != nil {
		t.Fatal(err)
	}

	close(release)
	s.Drain()

	// Every accepted experiment completed with a digest; the rejected one
	// was never enqueued.
	for _, id := range append(ids, bst.ID) {
		var st Status
		if code := getJSON(t, ts, "/v1/experiments/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		if st.State != "done" || st.Digest == "" {
			t.Fatalf("%s = %+v", id, st)
		}
	}
	var fs FleetStats
	getJSON(t, ts, "/v1/stats", &fs)
	if fs.Total != 5 {
		t.Fatalf("%d experiments registered, want 5 (reject must not enqueue)", fs.Total)
	}

	// The arbiter's log passes the fleet oracle: capacity conservation,
	// exactly-once lifecycle (nothing lost, nothing double-run), per-
	// tenant FIFO admission, bounded admission wait.
	if vs := harness.CheckFleetInvariants(s.FleetLog(), 4, 4); len(vs) != 0 {
		t.Fatalf("fleet oracle: %v", vs)
	}

	// Explicit FIFO drain check: acme's admissions happen in submission
	// order.
	var acmeAdmits []string
	for _, e := range s.FleetLog() {
		if e.Kind == "admit" && e.Tenant == "acme" {
			acmeAdmits = append(acmeAdmits, e.Exp)
		}
	}
	if len(acmeAdmits) != 4 {
		t.Fatalf("acme admits = %v", acmeAdmits)
	}
	for i, id := range acmeAdmits {
		if id != ids[i] {
			t.Fatalf("acme admit order %v, want %v", acmeAdmits, ids)
		}
	}
}

// TestServerCloseRefusesSubmissions: a closed server answers 503 and
// admits nothing new.
func TestServerCloseRefusesSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 2})
	s.Close()
	resp, body := postSub(t, ts, smallSub("acme", 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: %d %s", resp.StatusCode, body)
	}
}

// TestServerHundredConcurrentExperiments is the scale criterion: >= 100
// experiments live at once on one shared cluster, submitted concurrently
// over HTTP by 8 tenants, every one completing with a replay tuple that
// verifies offline to a bit-identical digest, and the whole fleet log
// passing the fairness oracle.
func TestServerHundredConcurrentExperiments(t *testing.T) {
	const (
		tenants   = 8
		perTenant = 13
		total     = tenants * perTenant // 104
		capacity  = 128
	)
	release := make(chan struct{})
	parked := make(chan string, total)
	s, ts := newTestServer(t, Config{
		Capacity: capacity,
		Quota:    Quota{MaxQueued: 32, MaxLive: perTenant, MaxGPUs: 4},
		DataDir:  t.TempDir(),
	})
	s.armJournal = func(id string, jw *journal.Writer) {
		parked <- id
		<-release
	}

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", ti)
			for j := 0; j < perTenant; j++ {
				resp, body := postSub(t, ts, smallSub(tenant, uint64(1000*ti+j)))
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("%s submit %d: %d %s", tenant, j, resp.StatusCode, body)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Wait (on the admission channel, not the wall clock) until every
	// experiment's driver is parked: all 104 are admitted and live.
	for i := 0; i < total; i++ {
		<-parked
	}
	if live := s.arb.Live(); live < 100 {
		t.Fatalf("%d experiments live concurrently, want >= 100", live)
	}
	if used := s.arb.InUse(); used > capacity {
		t.Fatalf("%d/%d GPUs held", used, capacity)
	}

	close(release)
	s.Drain()

	// Every experiment completed; every replay tuple verifies offline.
	exps := s.reg.All()
	if len(exps) != total {
		t.Fatalf("%d experiments registered, want %d", len(exps), total)
	}
	digests := map[string]int{}
	for _, e := range exps {
		tup, ok := e.Tuple()
		if !ok {
			t.Fatalf("%s did not complete: %+v", e.ID, e.StatusIn(s.reg))
		}
		if _, err := VerifyReplay(tup); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		digests[tup.Digest]++
	}
	if len(digests) < 2 {
		t.Fatal("all digests identical: seeds not reaching the runs")
	}
	if vs := harness.CheckFleetInvariants(s.FleetLog(), capacity, total); len(vs) != 0 {
		t.Fatalf("fleet oracle: %v", vs)
	}
}

// TestEventsFromBounds: ?from=N resumes anywhere up to the number of
// events published so far — N equal to it is an empty (finished) or
// waiting (running) feed — and one past it is refused with a 400 rather
// than an empty 200 or a stream that blocks until the run ends.
func TestEventsFromBounds(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 8, DataDir: t.TempDir()})
	admitted := make(chan string)
	proceed := make(chan struct{})
	s.armJournal = func(id string, jw *journal.Writer) {
		admitted <- id
		<-proceed
	}
	submit := func(seed uint64) *Experiment {
		t.Helper()
		if resp, body := postSub(t, ts, smallSub("acme", seed)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		exp, ok := s.reg.Get(<-admitted)
		if !ok {
			t.Fatal("admitted experiment not registered")
		}
		return exp
	}
	finished := submit(5)
	proceed <- struct{}{}
	finished.Wait()
	running := submit(6) // parked before its first stage
	defer func() {
		close(proceed)
		s.Drain()
	}()

	zero := func(int) int { return 0 }
	end := func(n int) int { return n }
	past := func(n int) int { return n + 1 }
	for _, c := range []struct {
		name  string
		exp   *Experiment
		from  func(published int) int
		code  int
		lines int // events expected before the feed ends; -1 for a live feed
	}{
		{"finished/0", finished, zero, http.StatusOK, finished.published()},
		{"finished/len", finished, end, http.StatusOK, 0},
		{"finished/len+1", finished, past, http.StatusBadRequest, 0},
		{"running/0", running, zero, http.StatusOK, -1},
		{"running/len", running, end, http.StatusOK, -1},
		{"running/len+1", running, past, http.StatusBadRequest, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			from := c.from(c.exp.published())
			resp, err := http.Get(fmt.Sprintf("%s/v1/experiments/%s/events?from=%d", ts.URL, c.exp.ID, from))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.code {
				t.Fatalf("from=%d: status %d, want %d", from, resp.StatusCode, c.code)
			}
			if c.code != http.StatusOK {
				var eb errBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error != "from beyond end of feed" {
					t.Fatalf("from=%d: body %+v (%v)", from, eb, err)
				}
				return
			}
			if c.lines < 0 {
				return // a live feed: the headers arrived, which is the contract
			}
			n := 0
			for sc := bufio.NewScanner(resp.Body); sc.Scan(); n++ {
			}
			if n != c.lines {
				t.Fatalf("from=%d: %d events, want %d", from, n, c.lines)
			}
		})
	}
}
