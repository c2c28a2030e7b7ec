package main

import (
	"context"
	"net/http"
	"sync/atomic"

	"webbase/internal/web"
)

// seams are the benchmark's timing wrappers around the system's public
// boundaries. Spans are recorded only while on is set, so one system can
// run both the traced phase and the untraced comparison phase.
type seams struct {
	rec  *spanRecorder
	on   atomic.Bool
	reqs atomic.Int64
}

func newSeams() *seams { return &seams{rec: newSpanRecorder()} }

type reqKey struct{}
type loadKey struct{}

// reqInfo identifies the request a page load serves: the request id and
// the id of its handler span.
type reqInfo struct{ req, span int64 }

// handler wraps the server's handler: it puts a request id into the
// request context (which the engine carries down to every
// web.Request.Context) and records one span per request, with the bytes
// written to the wire.
func (s *seams) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		info := reqInfo{req: s.reqs.Add(1), span: s.rec.id()}
		start := s.rec.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), reqKey{}, info)))
		s.rec.add(span{ID: info.span, Req: info.req, Name: "server.handler", Start: start, End: s.rec.now(), Bytes: cw.n})
	})
}

// countingWriter counts response bytes. It must stay an http.Flusher:
// the stream writer flushes every event through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// top wraps the whole fetch middleware stack as the logical layer sees
// it: one "web.load" span per page the engine navigates, hit or miss.
func (s *seams) top(f web.Fetcher) web.Fetcher {
	return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if !s.on.Load() {
			return f.Fetch(req)
		}
		info, _ := req.Context().Value(reqKey{}).(reqInfo)
		id := s.rec.id()
		start := s.rec.now()
		resp, err := f.Fetch(req.WithContext(context.WithValue(req.Context(), loadKey{}, id)))
		s.rec.add(span{ID: id, Parent: info.span, Req: info.req, Name: "web.load", Start: start, End: s.rec.now()})
		return resp, err
	})
}

// bottom wraps the page source below the stack: one "web.source" span
// per page actually fetched, the child of the load that issued it.
func (s *seams) bottom(f web.Fetcher) web.Fetcher {
	return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if !s.on.Load() {
			return f.Fetch(req)
		}
		info, _ := req.Context().Value(reqKey{}).(reqInfo)
		parent, _ := req.Context().Value(loadKey{}).(int64)
		id := s.rec.id()
		start := s.rec.now()
		resp, err := f.Fetch(req)
		s.rec.add(span{ID: id, Parent: parent, Req: info.req, Name: "web.source", Start: start, End: s.rec.now()})
		return resp, err
	})
}
