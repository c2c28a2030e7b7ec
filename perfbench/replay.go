package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"webbase/internal/web"
)

// errReplayMiss is returned for a request the recording never saw. The
// replay source fails closed: it never falls through to the simulator,
// so a changed access pattern shows up as a failed query, not as
// simulator time hidden inside the engine's numbers.
var errReplayMiss = errors.New("perfbench: request not in the replay recording")

// recorded is one page as the simulator answered it: the response
// (status, final URL and body) and the request that produced it, kept
// so the simulator's own cost can be measured on the same requests.
type recorded struct {
	req  *web.Request
	resp *web.Response
}

// recorder wraps the simulated Web and keeps every page it serves,
// keyed by web.Request.Key.
type recorder struct {
	inner  web.Fetcher
	mu     sync.Mutex
	pages  map[string]recorded
	errors int
}

func newRecorder(inner web.Fetcher) *recorder {
	return &recorder{inner: inner, pages: make(map[string]recorded)}
}

func (r *recorder) Fetch(req *web.Request) (*web.Response, error) {
	resp, err := r.inner.Fetch(req)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.errors++
		return nil, err
	}
	key := req.Key()
	if _, ok := r.pages[key]; !ok {
		r.pages[key] = recorded{req: &web.Request{URL: req.URL, Method: req.Method, Form: req.Form}, resp: resp}
	}
	return resp, nil
}

// replay is the page source of the timed runs: a read-only map from
// request key to recorded response.
type replay struct {
	pages  map[string]*web.Response
	served atomic.Int64
	misses atomic.Int64
}

// newReplay copies the recording into a fresh store, so the store's heap
// can be measured apart from everything else set-up allocated.
func newReplay(rec map[string]recorded) *replay {
	pages := make(map[string]*web.Response, len(rec))
	for k, p := range rec {
		body := append([]byte(nil), p.resp.Body...)
		pages[k] = &web.Response{Status: p.resp.Status, URL: p.resp.URL, Body: body}
	}
	return &replay{pages: pages}
}

func (r *replay) Fetch(req *web.Request) (*web.Response, error) {
	resp, ok := r.pages[req.Key()]
	if !ok {
		r.misses.Add(1)
		return nil, fmt.Errorf("%w: %s", errReplayMiss, req.Key())
	}
	r.served.Add(1)
	return resp, nil
}

// workingSet reports the distinct pages and their body kilobytes.
func (r *replay) workingSet() (pages int, kb float64) {
	var n int
	for _, p := range r.pages {
		n += len(p.Body)
	}
	return len(r.pages), float64(n) / 1024
}
