package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/journal"
)

// unwrapOnly hides every optional interface of the writer it wraps,
// Flusher included, and exposes it only through Unwrap — the shape of
// typical logging or metrics middleware.
type unwrapOnly struct{ http.ResponseWriter }

func (u unwrapOnly) Unwrap() http.ResponseWriter { return u.ResponseWriter }

// countingWriter records the Write and Flush calls a handler makes, in
// order: 'w' for a write, 'f' for a flush. Flushes reach the wrapped
// writer, and each sends the ops so far to flushed when it is set.
type countingWriter struct {
	http.ResponseWriter
	ops     []byte
	flushed chan<- string
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.ops = append(c.ops, 'w')
	return c.ResponseWriter.Write(p)
}

func (c *countingWriter) Flush() {
	c.ops = append(c.ops, 'f')
	if c.flushed != nil {
		c.flushed <- string(c.ops)
	}
	// A failed flush means the client is gone; the handler's next write
	// reports it.
	_ = http.NewResponseController(c.ResponseWriter).Flush()
}

func (c *countingWriter) count(op byte) int { return bytes.Count(c.ops, []byte{op}) }

// decodeFeed decodes an ndjson event stream.
func decodeFeed(t *testing.T, body []byte) []Event {
	t.Helper()
	var evs []Event
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var ev Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return evs
		} else if err != nil {
			t.Fatalf("decoding feed %q: %v", body, err)
		}
		evs = append(evs, ev)
	}
}

// getFeed reads an experiment's whole event stream from ?from=0.
func getFeed(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/experiments/" + id + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// parkedServer builds a journaling test server whose runs park before
// their first stage until release is closed; admitted receives each
// parked run's id. The returned func releases the runs and drains.
func parkedServer(t *testing.T) (s *Server, ts *httptest.Server, admitted <-chan string, release func()) {
	t.Helper()
	s, ts = newTestServer(t, Config{Capacity: 8, DataDir: t.TempDir()})
	ids := make(chan string, 8) // one slot per run a test parks
	gate := make(chan struct{})
	s.armJournal = func(id string, _ *journal.Writer) {
		ids <- id
		<-gate
	}
	var once sync.Once
	return s, ts, ids, func() {
		once.Do(func() { close(gate) })
		s.Drain()
	}
}

// TestEventsStreamThroughUnwrappingWriter: a live feed is flushed
// through a ResponseWriter wrapper that implements only Unwrap, so the
// queued event reaches the client while the run is still parked rather
// than sitting in the response buffer until the run ends.
func TestEventsStreamThroughUnwrappingWriter(t *testing.T) {
	s, _, admitted, release := parkedServer(t)
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(unwrapOnly{w}, r)
	}))
	defer func() {
		release()
		wrapped.Close()
	}()
	if resp, body := postSub(t, wrapped, smallSub("acme", 3)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := <-admitted
	// Without a flush even the response headers wait for the run, which
	// is released only after the first event arrives: a regression blocks
	// here until the test binary's timeout reports it.
	resp, err := http.Get(wrapped.URL + "/v1/experiments/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil || ev.Type != "queued" || ev.Seq != 0 {
		t.Fatalf("first event %q (%v), want queued", line, err)
	}
}

// TestEventsFinishedFeedNeverFlushes: a finished experiment's feed is
// written one event per Write with no explicit Flush, so the response's
// own finish sends it in one piece.
func TestEventsFinishedFeedNeverFlushes(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 4})
	resp, body := postSub(t, ts, smallSub("acme", 7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	rec := httptest.NewRecorder()
	cw := &countingWriter{ResponseWriter: rec}
	s.Handler().ServeHTTP(cw, httptest.NewRequest(http.MethodGet, "/v1/experiments/"+st.ID+"/events", nil))
	evs := decodeFeed(t, rec.Body.Bytes())
	if len(evs) < 5 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("finished feed = %+v", evs)
	}
	if cw.count('f') != 0 || cw.count('w') != len(evs) {
		t.Fatalf("finished feed of %d events: ops %q, want one write per event and no flush", len(evs), cw.ops)
	}
	if !bytes.Equal(rec.Body.Bytes(), getFeed(t, ts, st.ID)) {
		t.Fatal("recorded feed differs from the feed over HTTP")
	}
}

// TestEventsFlushOncePerWakeup drives a feed by hand: a streamer that
// has caught up flushes once, and a batch published under one lock hold
// wakes it once and is written and flushed together. The final batch is
// written without a flush.
func TestEventsFlushOncePerWakeup(t *testing.T) {
	s, err := NewServer(Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := s.reg.Submit(smallSub("acme", 1), nil) // queued, never pumped
	if err != nil {
		t.Fatal(err)
	}
	// Room for more flushes than the two expected, so a regression fails
	// the checks below rather than blocking the handler.
	flushed := make(chan string, 4)
	cw := &countingWriter{ResponseWriter: httptest.NewRecorder(), flushed: flushed}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(cw, httptest.NewRequest(http.MethodGet, "/v1/experiments/"+exp.ID+"/events", nil))
	}()
	if got := <-flushed; got != "wf" {
		t.Fatalf("ops before the first flush %q, want the queued event's write", got)
	}
	publishBatch := func(final bool, evs ...Event) {
		exp.mu.Lock()
		defer exp.mu.Unlock()
		if final {
			exp.state = StateFailed
		}
		for _, ev := range evs {
			exp.publishLocked(ev)
		}
	}
	publishBatch(false, Event{Type: "admitted"}, Event{Type: "plan"}, Event{Type: "grant", Granted: 1})
	if got := <-flushed; got != "wfwwwf" {
		t.Fatalf("ops at the second flush %q, want the batch's three writes", got)
	}
	publishBatch(true, Event{Type: "stage", Stage: 1}, Event{Type: "failed", Error: "stop"})
	<-done
	if got := string(cw.ops); got != "wfwwwfww" {
		t.Fatalf("ops %q, want wfwwwfww", got)
	}
}

// TestEventsLiveStreamMatchesReread: a stream opened on a parked run and
// followed to the end decodes to exactly the ?from=0 feed read after
// completion, flushes only after writing something new, and sends its
// final event without a flush.
func TestEventsLiveStreamMatchesReread(t *testing.T) {
	s, ts, admitted, release := parkedServer(t)
	served := make(chan *countingWriter, 1)
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		s.Handler().ServeHTTP(cw, r)
		if r.Method == http.MethodGet {
			served <- cw
		}
	}))
	defer func() {
		release()
		counted.Close()
	}()
	if resp, body := postSub(t, counted, smallSub("acme", 11)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := <-admitted
	resp, err := http.Get(counted.URL + "/v1/experiments/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n') // the queued event, flushed while parked
	if err != nil {
		t.Fatal(err)
	}
	release()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	cw := <-served
	live := decodeFeed(t, append(first, rest...))
	reread := decodeFeed(t, getFeed(t, ts, id))
	if !reflect.DeepEqual(live, reread) {
		t.Fatalf("live stream %+v\n!= re-read %+v", live, reread)
	}
	if last := live[len(live)-1]; last.Type != "done" {
		t.Fatalf("live stream ends with %+v", last)
	}
	ops := string(cw.ops)
	if cw.count('w') != len(live) || cw.count('f') == 0 || ops[len(ops)-1] != 'w' ||
		ops[0] != 'w' || bytes.Contains(cw.ops, []byte("ff")) {
		t.Fatalf("live stream of %d events: ops %q, want a flush only after new writes and none after the last", len(live), ops)
	}
}

// TestEventsConcurrentStreamers: 16 streamers on one parked run, with
// Experiment.Wait and Server.Drain callers beside them, share the lazily
// made wake channel; every stream equals the final feed and every caller
// returns.
func TestEventsConcurrentStreamers(t *testing.T) {
	s, ts, admitted, release := parkedServer(t)
	defer release()
	if resp, body := postSub(t, ts, smallSub("acme", 21)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := <-admitted
	exp, ok := s.reg.Get(id)
	if !ok {
		t.Fatal("admitted experiment not registered")
	}
	const streamers = 16
	streams := make([][]byte, streamers)
	errs := make(chan error, streamers)
	var ready, wg sync.WaitGroup
	ready.Add(streamers)
	for k := range streamers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			live := func() { once.Do(ready.Done) }
			defer live()
			resp, err := http.Get(ts.URL + "/v1/experiments/" + id + "/events")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			first, err := br.ReadBytes('\n')
			live()
			if err != nil {
				errs <- err
				return
			}
			rest, err := io.ReadAll(br)
			if err != nil {
				errs <- err
				return
			}
			streams[k] = append(first, rest...)
		}()
	}
	for range 4 {
		wg.Add(2)
		go func() { defer wg.Done(); exp.Wait() }()
		go func() { defer wg.Done(); s.Drain() }()
	}
	ready.Wait()
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := getFeed(t, ts, id)
	if evs := decodeFeed(t, want); evs[len(evs)-1].Type != "done" {
		t.Fatalf("final feed %+v", evs)
	}
	for k, got := range streams {
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %d:\n%s\nwant\n%s", k, got, want)
		}
	}
}

// TestPublishWithoutWaiterAllocatesNothing: with reserved capacity and
// nobody waiting, publishing makes no wake channel; a waiter's channel
// is made once and closed and dropped by the next publish.
func TestPublishWithoutWaiterAllocatesNothing(t *testing.T) {
	e := newExperiment("exp-0000", smallSub("acme", 1))
	e.events = slices.Grow(e.events, 128)
	if a := testing.AllocsPerRun(100, func() { e.publish(Event{Type: "stage", Stage: 1}) }); a != 0 {
		t.Fatalf("publish with no waiter: %v allocs, want 0", a)
	}
	e.mu.Lock()
	ch := e.waitLocked()
	if again := e.waitLocked(); again != ch {
		t.Fatal("second waiter got a different channel")
	}
	e.mu.Unlock()
	e.publish(Event{Type: "stage", Stage: 2})
	select {
	case <-ch:
	default:
		t.Fatal("publish did not wake the waiter")
	}
	if e.notify != nil {
		t.Fatal("publish kept the closed channel")
	}
}

// discardWriter is a ResponseWriter that drops the body and counts
// flushes.
type discardWriter struct {
	h       http.Header
	flushes int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      { d.flushes++ }

// BenchmarkEventsFeed streams a finished feed of about ten events
// through handleEvents into a discarding writer.
func BenchmarkEventsFeed(b *testing.B) {
	s, err := NewServer(Config{Capacity: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sub := smallSub("acme", 1)
	sub.Stages = [][2]int{{8, 1}, {4, 1}, {2, 1}, {1, 1}}
	exp, err := s.reg.Submit(sub, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.pump()
	exp.Wait()
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/"+exp.ID+"/events", nil)
	req.SetPathValue("id", exp.ID)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		s.handleEvents(w, req)
	}
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/op")
	b.ReportMetric(float64(exp.published()), "events/op")
}
