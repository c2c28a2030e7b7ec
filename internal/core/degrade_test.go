package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/sites"
	"webbase/internal/trace"
	"webbase/internal/ur"
	"webbase/internal/web"
)

// manualClock is a settable time source for cache-expiry tests; unlike
// fakeClock it only moves when told to, so "two minutes later" is an
// explicit test step.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(1999, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// switchableFetcher forwards until down is set, then refuses every host.
type switchableFetcher struct {
	inner web.Fetcher
	down  atomic.Bool
}

func (s *switchableFetcher) Fetch(req *web.Request) (*web.Response, error) {
	if s.down.Load() {
		return nil, fmt.Errorf("host %s: connection refused", web.HostOf(req.URL))
	}
	return s.inner.Fetch(req)
}

// hostCountFetcher counts the requests that reach one host.
type hostCountFetcher struct {
	inner web.Fetcher
	host  string
	calls atomic.Int64
}

func (h *hostCountFetcher) Fetch(req *web.Request) (*web.Response, error) {
	if web.HostOf(req.URL) == h.host {
		h.calls.Add(1)
	}
	return h.inner.Fetch(req)
}

// relationLines splits a rendered relation into its tuple lines for
// subset checks.
func relationLines(s string) map[string]bool {
	m := make(map[string]bool)
	for _, line := range strings.Split(s, "\n") {
		if line != "" {
			m[line] = true
		}
	}
	return m
}

// TestQueryDegradesOneSiteDown is the acceptance test for graceful
// degradation: with one site terminally down, a query returns exactly the
// surviving objects' tuples plus a populated Degradation report, and both
// are byte-identical at Workers=1 and Workers=8.
func TestQueryDegradesOneSiteDown(t *testing.T) {
	healthyWB, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	healthy, _, err := healthyWB.QueryString(context.Background(), wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degradation != nil {
		t.Fatalf("healthy query degraded: %+v", healthy.Degradation)
	}

	run := func(workers int) (*ur.Result, *QueryStats) {
		wb, err := New(Config{
			Fetcher: &hostDownFetcher{inner: sites.BuildWorld().Server, down: sites.NewsdayHost},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, qs, err := wb.QueryString(context.Background(), wideCarQuery)
		if err != nil {
			t.Fatalf("workers=%d: degraded query failed outright: %v", workers, err)
		}
		return res, qs
	}
	seq, seqStats := run(1)
	par, parStats := run(8)

	// The partial answer and the report are schedule-independent.
	if seq.Relation.String() != par.Relation.String() {
		t.Errorf("degraded answer differs across worker counts\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			seq.Relation, par.Relation)
	}
	if seq.Degradation.String() != par.Degradation.String() {
		t.Errorf("degradation report differs across worker counts\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
			seq.Degradation, par.Degradation)
	}
	if fmt.Sprint(seq.Skipped) != fmt.Sprint(par.Skipped) {
		t.Errorf("skipped objects differ: %v vs %v", seq.Skipped, par.Skipped)
	}

	// The report names the dead host and the object it took down.
	if seq.Degradation == nil || len(seq.Degradation.Unavailable) == 0 {
		t.Fatalf("degradation report empty: %+v", seq.Degradation)
	}
	f := seq.Degradation.Unavailable[0]
	if f.Host != sites.NewsdayHost {
		t.Errorf("unavailable host = %q, want %q", f.Host, sites.NewsdayHost)
	}
	if !strings.Contains(strings.Join(f.Object, ","), "Classifieds") {
		t.Errorf("unavailable object %v does not name Classifieds", f.Object)
	}
	if seqStats.DegradedObjects != len(seq.Degradation.Unavailable) ||
		parStats.DegradedObjects != len(par.Degradation.Unavailable) {
		t.Errorf("qs.DegradedObjects = %d/%d, report has %d",
			seqStats.DegradedObjects, parStats.DegradedObjects, len(seq.Degradation.Unavailable))
	}

	// Exactly the surviving objects' tuples: a subset of the healthy
	// answer, strictly smaller (newsday contributes jaguar ads).
	healthyLines := relationLines(healthy.Relation.String())
	for line := range relationLines(seq.Relation.String()) {
		if !healthyLines[line] {
			t.Errorf("degraded answer invented tuple %q", line)
		}
	}
	if seq.Relation.Len() >= healthy.Relation.Len() {
		t.Errorf("degraded answer has %d tuples, healthy %d — nothing was lost?",
			seq.Relation.Len(), healthy.Relation.Len())
	}
}

// TestQueryStrictFailsFast: the same outage under Config.Strict aborts
// the whole query with the taxonomized per-site error.
func TestQueryStrictFailsFast(t *testing.T) {
	wb, err := New(Config{
		Fetcher: &hostDownFetcher{inner: sites.BuildWorld().Server, down: sites.NewsdayHost},
		Workers: 4,
		Strict:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = wb.QueryString(context.Background(), wideCarQuery)
	if err == nil {
		t.Fatal("strict query succeeded over a dead site")
	}
	if !web.IsOutage(err) {
		t.Errorf("strict failure not classified as outage: %v", err)
	}
	if web.FailingHost(err) != sites.NewsdayHost {
		t.Errorf("strict failure host = %q, want %q", web.FailingHost(err), sites.NewsdayHost)
	}
}

// TestQueryStaleOnError: after the whole web goes dark, a webbase with
// stale-on-error answers the same query from expired cache entries, and
// the staleness is visible everywhere it should be — QueryStats, the
// Degradation report, trace labels, the metrics registry, and the
// EXPLAIN ANALYZE footer.
func TestQueryStaleOnError(t *testing.T) {
	clk := newManualClock()
	sw := &switchableFetcher{inner: sites.BuildWorld().Server}
	wb, err := New(Config{
		Fetcher:     sw,
		Workers:     4,
		Clock:       clk.Now,
		CacheMaxAge: time.Minute,
		AllowStale:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}

	healthy, hqs, err := wb.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hqs.StaleServed != 0 || healthy.Degradation != nil {
		t.Fatalf("healthy run: stale=%d degradation=%+v", hqs.StaleServed, healthy.Degradation)
	}

	// Every cache entry expires, then the web goes down entirely.
	clk.Advance(2 * time.Minute)
	sw.down.Store(true)

	res, qs, tr, err := wb.QueryStreamTraced(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("stale-on-error did not rescue the query: %v", err)
	}
	if res.Relation.String() != healthy.Relation.String() {
		t.Errorf("stale answer differs from the healthy answer\n--- healthy ---\n%s\n--- stale ---\n%s",
			healthy.Relation, res.Relation)
	}
	if qs.StaleServed == 0 {
		t.Error("qs.StaleServed = 0 after serving from a dead web")
	}
	if res.Degradation == nil || res.Degradation.StaleServed != qs.StaleServed {
		t.Errorf("degradation report stale count: %+v, qs says %d", res.Degradation, qs.StaleServed)
	}
	var staleSpans int64
	tr.Root.Walk(func(sp *trace.Span) {
		if sp.Kind() == trace.KindFetch && sp.LabelValue("outcome") == "stale" {
			staleSpans++
		}
	})
	if staleSpans != qs.StaleServed {
		t.Errorf("outcome=stale spans = %d, qs.StaleServed = %d", staleSpans, qs.StaleServed)
	}
	if got := wb.Metrics().Snapshot().Counters["stale_served_total"]; got != qs.StaleServed {
		t.Errorf("stale_served_total = %d, want %d", got, qs.StaleServed)
	}

	// The EXPLAIN ANALYZE footer reports the degraded, stale-served run.
	clk.Advance(2 * time.Minute)
	report, err := wb.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "stale-served=") || !strings.Contains(report, "degraded:") {
		t.Errorf("EXPLAIN ANALYZE footer misses the degradation report:\n%s", report)
	}
}

// TestQueryBreakerOpensAndRejects: with the opt-in breaker configured, a
// dead site's circuit opens during the first query; the second query is
// degraded the same way but never touches the dead host again.
func TestQueryBreakerOpensAndRejects(t *testing.T) {
	clk := newManualClock()
	counter := &hostCountFetcher{
		inner: &hostDownFetcher{inner: sites.BuildWorld().Server, down: sites.NewsdayHost},
		host:  sites.NewsdayHost,
	}
	wb, err := New(Config{
		Fetcher: counter,
		Workers: 4,
		Clock:   clk.Now,
		Breaker: &web.BreakerConfig{Window: 1, MinSamples: 1, FailureRatio: 1.0, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}

	first, _, err := wb.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degradation == nil {
		t.Fatal("first query over the dead site not degraded")
	}
	if st := wb.Breaker().State(sites.NewsdayHost); st != web.BreakerOpen {
		t.Fatalf("breaker state after first query = %v, want open", st)
	}
	touched := counter.calls.Load()
	if touched == 0 {
		t.Fatal("dead host never probed at all")
	}

	second, qs, err := wb.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if counter.calls.Load() != touched {
		t.Errorf("open circuit let %d more fetches reach the dead host",
			counter.calls.Load()-touched)
	}
	if qs.BreakerRejects == 0 {
		t.Error("qs.BreakerRejects = 0 with an open circuit in the path")
	}
	if second.Relation.String() != first.Relation.String() {
		t.Errorf("breaker-rejected query answered differently\n--- first ---\n%s\n--- second ---\n%s",
			first.Relation, second.Relation)
	}
	if got := wb.Metrics().Snapshot().Counters["breaker_rejects_total"]; got != qs.BreakerRejects {
		t.Errorf("breaker_rejects_total = %d, want %d", got, qs.BreakerRejects)
	}
}
