package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/server"
	"webbase/internal/sites"
)

// End-to-end resilience: the typed client against the real query server,
// with the transport sabotaged under it. The property under test is the
// tentpole promise — one uninterrupted iteration whose deliveries are
// byte-identical to an unbroken run, across killed connections and a
// full server restart onto a warm state dir.

const carQuery = "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'jaguar' AND Year >= 1993 " +
	"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice"

const wideQuery = "SELECT Make, Model, Year, Price, BBPrice, Contact " +
	"WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice"

func newCarService(t *testing.T, cfg core.Config) (*httptest.Server, *core.Webbase) {
	t.Helper()
	if cfg.Fetcher == nil {
		cfg.Fetcher = sites.BuildWorld().Server
	}
	wb, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{System: wb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, wb
}

// drain renders a stream's deliveries in order: the byte-comparison form
// for stitched-vs-unbroken checks.
func drain(t *testing.T, st *Stream) []string {
	t.Helper()
	var out []string
	for st.Next() {
		d := st.Delivery()
		out = append(out, fmt.Sprintf("seq=%d index=%d object=%v skipped=%q failure=%v tuples=%v",
			d.Seq, d.Index, d.Object, d.Skipped, d.Failure, d.Tuples))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Trailer() == nil {
		t.Fatal("clean end without trailer")
	}
	return out
}

// killNth severs the n-th /query response after allowing a byte budget
// through — later responses pass untouched.
type killNth struct {
	base  http.RoundTripper
	mu    sync.Mutex
	n     int // responses left to kill
	allow int64
}

func (k *killNth) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := k.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/query" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	k.mu.Lock()
	kill := k.n > 0
	if kill {
		k.n--
	}
	allow := k.allow
	k.mu.Unlock()
	if kill {
		resp.Body = &cutBody{rc: resp.Body, remaining: allow}
	}
	return resp, nil
}

type cutBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errors.New("integration test: connection severed")
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= int64(n)
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// TestClientResumesAcrossKilledConnections: two consecutive connection
// kills mid-stream; the iteration is indistinguishable from an unbroken
// one.
func TestClientResumesAcrossKilledConnections(t *testing.T) {
	ts, _ := newCarService(t, core.Config{Workers: 8})

	calm, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	calmStream, err := calm.Query(context.Background(), wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, calmStream)

	chaos, err := New(Config{
		BaseURL:     ts.URL,
		HTTPClient:  &http.Client{Transport: &killNth{base: http.DefaultTransport, n: 2, allow: 600}},
		MaxAttempts: 10,
		sleep:       noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := chaos.Query(context.Background(), wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := drain(t, st)

	if st.Attempts() < 2 {
		t.Fatalf("attempts = %d — the chaos transport never bit", st.Attempts())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed iteration differs from unbroken run:\n got %v\nwant %v", got, want)
	}
}

// reroute directs requests at whichever backend is currently alive — the
// restart seam: the client's base URL never changes, the process behind
// it does. Until the valve trips, response bodies are fed one byte per
// read so the client never buffers ahead of what it has consumed; when
// the old process is killed the valve trips and the next read fails like
// a dropped connection.
type reroute struct {
	mu      sync.Mutex
	target  string // host:port
	tripped atomic.Bool
}

func (r *reroute) set(hostport string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.target = hostport
}

func (r *reroute) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	req.URL.Host = r.target
	r.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/query" || resp.StatusCode != http.StatusOK || r.tripped.Load() {
		return resp, err
	}
	resp.Body = &valveBody{rc: resp.Body, tripped: &r.tripped}
	return resp, nil
}

type valveBody struct {
	rc      io.ReadCloser
	tripped *atomic.Bool
}

func (v *valveBody) Read(p []byte) (int, error) {
	if v.tripped.Load() {
		return 0, errors.New("integration test: server process killed")
	}
	return v.rc.Read(p[:1])
}

func (v *valveBody) Close() error { return v.rc.Close() }

// TestClientResumesAcrossServerRestart: the stream's origin process is
// killed mid-answer; a new process boots onto the warm state dir; the
// client reconnects, resumes, and the caller never notices — the
// deliveries equal an unbroken run's.
func TestClientResumesAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	world := sites.BuildWorld()
	boot := func() (*httptest.Server, *core.Webbase) {
		wb, err := core.New(core.Config{Fetcher: world.Server, Workers: 8, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{System: wb})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv.Handler()), wb
	}

	// Ground truth from a throwaway service on its own (equally warm)
	// state: actually just the stream we interrupt — captured fully first.
	ts0, wb0 := newCarService(t, core.Config{Fetcher: world.Server, Workers: 8})
	calm, err := New(Config{BaseURL: ts0.URL})
	if err != nil {
		t.Fatal(err)
	}
	calmStream, err := calm.Query(context.Background(), wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, calmStream)
	ts0.Close()
	wb0.Close()

	ts1, wb1 := boot()
	route := &reroute{}
	route.set(ts1.Listener.Addr().String())
	c, err := New(Config{
		BaseURL:     "http://webbase.invalid", // never dialed; reroute rewrites the host
		HTTPClient:  &http.Client{Transport: route},
		MaxAttempts: 10,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Query(context.Background(), wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatal(st.Err())
	}
	got := []string{fmt.Sprintf("seq=%d index=%d object=%v skipped=%q failure=%v tuples=%v",
		st.Delivery().Seq, st.Delivery().Index, st.Delivery().Object,
		st.Delivery().Skipped, st.Delivery().Failure, st.Delivery().Tuples)}

	// Kill the process mid-stream: trip the valve so the in-flight read
	// fails, sever its connections, flush its durable state, boot a
	// successor on the same dir, repoint the route.
	route.tripped.Store(true)
	ts1.CloseClientConnections()
	ts1.Close()
	wb1.Close()
	ts2, wb2 := boot()
	defer ts2.Close()
	defer wb2.Close()
	route.set(ts2.Listener.Addr().String())

	for st.Next() {
		d := st.Delivery()
		got = append(got, fmt.Sprintf("seq=%d index=%d object=%v skipped=%q failure=%v tuples=%v",
			d.Seq, d.Index, d.Object, d.Skipped, d.Failure, d.Tuples))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Trailer() == nil {
		t.Fatal("no trailer after restart resume")
	}
	if st.Attempts() < 2 {
		t.Fatalf("attempts = %d, want a reconnect", st.Attempts())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restart-resumed iteration differs from unbroken run:\n got %v\nwant %v", got, want)
	}
}

// TestClientAgainstRealErrorPaths: the real server's envelopes round-trip
// through the typed taxonomy (not just scripted ones).
func TestClientAgainstRealErrorPaths(t *testing.T) {
	ts, _ := newCarService(t, core.Config{})
	c, err := New(Config{BaseURL: ts.URL, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "SELECT Bogus"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad query err = %v, want ErrBadQuery", err)
	}

	// A tenant-gated server: the wrong key maps to ErrUnauthorized (not
	// retried), the right one streams.
	wb, err := core.New(core.Config{Fetcher: sites.BuildWorld().Server})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		System:  wb,
		Tenants: []server.Tenant{{Key: "goodkey", Name: "alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tsAuth := httptest.NewServer(srv.Handler())
	t.Cleanup(tsAuth.Close)

	bad, err := New(Config{BaseURL: tsAuth.URL, APIKey: "wrongkey", sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Query(context.Background(), carQuery); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong key err = %v, want ErrUnauthorized", err)
	}

	good, err := New(Config{BaseURL: tsAuth.URL, APIKey: "goodkey", sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	st, err := good.Query(context.Background(), carQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := drain(t, st); len(got) == 0 {
		t.Fatal("authenticated stream delivered nothing")
	}
}

// TestClientStreamsRealAnswer: the happy path against the real service —
// typed deliveries, a trailer with stats, tuples matching the carQuery
// ground truth count.
func TestClientStreamsRealAnswer(t *testing.T) {
	ts, wb := newCarService(t, core.Config{Workers: 4})
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Query(context.Background(), carQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Meta().Query == "" || st.Meta().ResumeToken == "" || len(st.Meta().Schema) == 0 {
		t.Fatalf("meta = %+v", st.Meta())
	}
	n := 0
	for st.Next() {
		n += len(st.Delivery().Tuples)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	res, _, err := wb.QueryString(context.Background(), carQuery)
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Relation.Len() || st.Trailer().Tuples != n {
		t.Fatalf("streamed %d tuples, trailer says %d, in-process answer has %d",
			n, st.Trailer().Tuples, res.Relation.Len())
	}
	if st.Trailer().Stats == nil {
		t.Fatal("trailer without stats")
	}
}
