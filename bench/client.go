package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// client drives the API from one goroutine over one keep-alive
// connection, counting requests and response bytes, with a client span
// around every call when traced.
type client struct {
	hc       *http.Client
	tp       *http.Transport
	base     string
	tr       *tracer
	requests int
	bytes    int64
}

func newClient(base string, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	// The timeout bounds a run whose server wedges: the benchmark must
	// fail, not hang.
	return &client{hc: &http.Client{Transport: tp, Timeout: 30 * time.Second}, tp: tp, base: base, tr: tr}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// countingBody counts the bytes read from a response body.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// send issues one request. The returned finish drains and closes the
// body and records the client span; the caller calls it exactly once.
func (c *client) send(method, path string, body []byte) (*http.Response, func(exp string), error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	var id, start int64
	if c.tr != nil {
		id = c.tr.id()
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	cb := &countingBody{ReadCloser: resp.Body}
	resp.Body = cb
	finish := func(exp string) {
		// Draining lets the transport reuse the connection; a read error
		// here has already surfaced through the caller's decode.
		_, _ = io.Copy(io.Discard, cb)
		cb.Close()
		c.requests++
		c.bytes += cb.n
		if c.tr != nil {
			c.tr.add(span{ID: id, Name: "client." + route(method, path), Exp: exp,
				Start: start, End: c.tr.now(), Bytes: cb.n})
		}
	}
	return resp, finish, nil
}

// call sends one request and decodes the JSON response into out.
func (c *client) call(method, path string, body []byte, out any) (int, error) {
	resp, finish, err := c.send(method, path, body)
	if err != nil {
		return 0, err
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	exp := expID(path)
	if st, ok := out.(*serve.Status); ok && exp == "" {
		exp = st.ID
	}
	finish(exp)
	return resp.StatusCode, err
}

// follow streams an experiment's events until its final one and returns
// that event with the instant it arrived.
func (c *client) follow(id string) (serve.Event, time.Time, error) {
	resp, finish, err := c.send(http.MethodGet, "/v1/experiments/"+id+"/events", nil)
	if err != nil {
		return serve.Event{}, time.Time{}, err
	}
	defer finish(id)
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.Event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("event stream ended before a final event")
			}
			return ev, time.Now(), err
		}
		if ev.Type == "done" || ev.Type == "failed" {
			return ev, time.Now(), nil
		}
	}
}
