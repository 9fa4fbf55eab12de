package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// reqHeader carries the client span id to the server-side middleware, so
// each handler span can name the client span that caused it.
const reqHeader = "X-Bench-Span"

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public entry point. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Exp    string `json:"exp,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response body size of a client span.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id reserves a span id.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// timed runs fn inside a span named name and returns its duration.
func (t *tracer) timed(name, exp string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.add(span{Parent: parent, Name: name, Exp: exp,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	}
	return end.Sub(start)
}

// middleware records one server span per request around the server's
// handler, parented to the client span named in reqHeader. The response
// writer passes through untouched, so event streams keep flushing.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t.add(span{Parent: parent, Name: "serve." + route(r.Method, r.URL.Path),
			Exp: expID(r.URL.Path), Start: start, End: t.now()})
	})
}

// route names the API call a request makes.
func route(method, path string) string {
	switch {
	case method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/replay"):
		return "replay"
	default:
		return "status"
	}
}

// expID extracts the experiment id from an /v1/experiments/{id}... path.
func expID(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/experiments/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// selfTime is a span's duration minus the part its children cover.
// Children of one span never overlap here: each is a sequential call.
func selfTime(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := self[s.Parent]; ok {
				self[s.Parent] -= s.dur()
			}
		}
	}
	return self
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
