package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/ur"
)

// runTraced is the per-layer run: an untraced phase to price the
// tracing, the traced phase whose spans give the server and web
// figures, then in-process and direct calls into the layers.
func runTraced(b *bench, d *closedLoop, dur time.Duration, warm loadResult) (*result, error) {
	plain := d.phase(dur / 2)

	b.seams.rec.take() // spans of the warm-up
	b.seams.on.Store(true)
	before := readCounters(b)
	tr := d.phase(dur)
	delta := readCounters(b).sub(before)
	b.seams.on.Store(false)
	spans := b.seams.rec.take()

	in := inProcess(b, newSequence(d.seed, 0), dur/4)

	rep := report{replayMisses: delta.replayMisses, info: map[string]float64{}}
	for _, lr := range []loadResult{warm, plain, tr} {
		for _, s := range lr.samples {
			switch {
			case s.ok:
				rep.ok++
			case s.mismatch:
				rep.wrong++
			default:
				rep.failed++
			}
		}
		rep.attempted += len(lr.samples)
	}
	rep.attempted += in.n
	rep.ok += in.n - in.wrong
	rep.wrong += in.wrong
	rep.errorRatio = float64(rep.wrong+rep.failed) / float64(max(rep.attempted, 1))
	rep.sitePagesPerQuery = float64(delta.served) / float64(max(len(tr.samples), 1))
	overhead := tracingOverhead(plain, tr)
	rep.info["tracing.latency_overhead_ratio"] = overhead
	fmt.Printf("tracing overhead: %.1f qps traced vs %.1f qps untraced; on the queries both phases ran, traced latency / untraced latency = %.3f\n",
		float64(tr.okCount())/tr.elapsed.Seconds(), float64(plain.okCount())/plain.elapsed.Seconds(), overhead)

	m := layerMetrics(b, tr, spans, delta)
	for k, v := range in.metrics() {
		m[k] = v
	}
	direct, err := directMetrics(b)
	if err != nil {
		return nil, err
	}
	for k, v := range direct {
		m[k] = v
	}
	loads := m["web.loads_per_query"].Value
	m["htmlkit.parse_ms_per_query"] = metric{m["htmlkit.parse_us_per_page"].Value * loads / 1000, "ms"}
	m["navcalc.extract_ms_per_query"] = metric{m["navcalc.extract_us_per_page"].Value * loads / 1000, "ms"}

	res := &result{
		Correct:   rep.wrong == 0 && rep.failed == 0 && rep.replayMisses == 0 && rep.ok > 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.wrong + rep.failed,
		Metrics:   m,
	}
	if err := writeSpans(filepath.Join(outDir, "spans-"+b.w.name+".jsonl.gz"), spans); err != nil {
		return nil, err
	}
	printRecord(rep, res)
	return res, writeRecord(b.w.name, d.seed, true, rep, res)
}

// tracingOverhead compares the two phases on the queries both ran, so a
// different mix of cheap and dear queries in the two windows does not
// read as overhead: it returns the summed mean traced latency over the
// summed mean untraced latency of those pool queries.
func tracingOverhead(plain, traced loadResult) float64 {
	meanByQuery := func(lr loadResult) map[int]float64 {
		sum, n := map[int]float64{}, map[int]float64{}
		for _, s := range lr.samples {
			if s.ok {
				sum[s.pool] += ms(s.latency)
				n[s.pool]++
			}
		}
		for q := range sum {
			sum[q] /= n[q]
		}
		return sum
	}
	p, t := meanByQuery(plain), meanByQuery(traced)
	var ps, ts float64
	for q, v := range p {
		if w, ok := t[q]; ok {
			ps += v
			ts += w
		}
	}
	if ps == 0 {
		return 0
	}
	return ts / ps
}

// layerMetrics derives the server and web figures from the traced
// phase's spans and the system's counters.
func layerMetrics(b *bench, tr loadResult, spans []span, delta counters) map[string]metric {
	self := selfTimes(spans)
	selfOf := func(s span) int64 {
		if v, ok := self[s.ID]; ok {
			return v
		}
		return s.dur()
	}
	var (
		queries, loads, sources                   int
		handlerNs, engineNs, bytes, loadNs, stack int64
	)
	for _, s := range spans {
		switch s.Name {
		case "server.handler":
			queries++
			handlerNs += s.dur()
			engineNs += selfOf(s)
			bytes += s.Bytes
		case "web.load":
			loads++
			loadNs += s.dur()
			stack += selfOf(s)
		case "web.source":
			sources++
		}
	}
	q := float64(max(queries, 1))
	hitRatio := 0.0
	if b.sys.Cache() != nil {
		hitRatio = float64(delta.hits) / float64(max(loads, 1))
	}
	var objects int
	for _, s := range tr.samples {
		objects += s.planObjects
	}
	return map[string]metric{
		"server.handler_ms_per_query":     {float64(handlerNs) / 1e6 / q, "ms"},
		"server.engine_self_ms_per_query": {float64(engineNs) / 1e6 / q, "ms"},
		"server.bytes_per_query":          {float64(bytes) / q, "bytes"},
		"ur.objects_per_query":            {float64(objects) / float64(max(len(tr.samples), 1)), "count"},
		"web.loads_per_query":             {float64(loads) / q, "count"},
		"web.load_ms_per_query":           {float64(loadNs) / 1e6 / q, "ms"},
		"web.cache_hit_ratio":             {hitRatio, "ratio"},
		"web.dedup_per_query":             {float64(delta.deduped) / q, "count"},
		"web.host_wait_ms_per_query":      {ms(delta.limiterWait) / q, "ms"},
		"web.net_wait_ms_per_query":       {ms(delta.simulated) / q, "ms"},
		"web.source_fetches_per_query":    {float64(sources) / q, "count"},
		"web.stack_self_us_per_load":      {float64(stack) / 1e3 / float64(max(loads, 1)), "us"},
	}
}

// inProcessResult holds the in-process QueryStream measurements.
type inProcessResult struct {
	n, wrong                 int
	queryMs, firstMs         []float64
	allocs, kb, tracedAllocs []float64
}

// inProcess calls QueryStream and QueryStreamTraced directly, one query
// at a time, counting the allocations of each call. The two calls of a
// pair alternate which goes first, so cache state favours neither.
func inProcess(b *bench, seq *sequence, budget time.Duration) inProcessResult {
	var r inProcessResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		qi := seq.take()
		for k := 0; k < 2; k++ {
			traced := (k == 0) == (i%2 == 1)
			m := measureQuery(b, qi, traced)
			r.n++
			if !m.ok {
				r.wrong++
				continue
			}
			if traced {
				r.tracedAllocs = append(r.tracedAllocs, m.allocs)
				continue
			}
			r.queryMs = append(r.queryMs, ms(m.dur))
			r.firstMs = append(r.firstMs, ms(m.first))
			r.allocs = append(r.allocs, m.allocs)
			r.kb = append(r.kb, m.bytes/1024)
		}
	}
	return r
}

func (r inProcessResult) metrics() map[string]metric {
	return map[string]metric{
		"core.query_ms":           {percentile(r.queryMs, 50), "ms"},
		"core.allocs_per_query":   {mean(r.allocs), "count"},
		"core.alloc_kb_per_query": {mean(r.kb), "KB"},
		"trace.allocs_per_query":  {mean(r.tracedAllocs) - mean(r.allocs), "count"},
		"ur.first_delivery_ms":    {percentile(r.firstMs, 50), "ms"},
	}
}

type queryMeasure struct {
	dur, first    time.Duration
	allocs, bytes float64
	ok            bool
}

func measureQuery(b *bench, qi int, traced bool) queryMeasure {
	var m queryMeasure
	var got []ur.ObjectDelivery
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sink := func(d ur.ObjectDelivery) {
		if len(got) == 0 {
			m.first = time.Since(t0)
		}
		got = append(got, d)
	}
	var err error
	if traced {
		_, _, _, err = b.sys.QueryStreamTraced(context.Background(), b.parsed[qi], sink)
	} else {
		_, _, err = b.sys.QueryStream(context.Background(), b.parsed[qi], sink)
	}
	m.dur = time.Since(t0)
	runtime.ReadMemStats(&m1)
	m.allocs = float64(m1.Mallocs - m0.Mallocs)
	m.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	if err != nil {
		return m
	}
	var col collector
	for _, d := range got {
		col.add(d)
	}
	m.ok = col.answer().equal(b.refs[qi])
	return m
}

// directMetrics times single layers called directly on set-up's
// recorded pages and the pool: query planning, HTML parsing, page to
// F-logic extraction, and the simulator's rendering of the same pages.
func directMetrics(b *bench) (map[string]metric, error) {
	const minTime = 300 * time.Millisecond
	var err error
	var plans int
	planT := repeat(minTime, func() {
		for _, pq := range b.pool {
			q, perr := ur.ParseQuery(b.sys.UR, pq)
			if perr == nil {
				_, perr = b.sys.UR.Plan(q)
			}
			if perr != nil && err == nil {
				err = fmt.Errorf("planning %q: %w", pq, perr)
			}
			plans++
		}
	})
	var pages []recorded
	for _, p := range b.recorded {
		if p.resp.OK() {
			pages = append(pages, p)
		}
	}
	docs := make([]*htmlkit.Node, len(pages))
	var parsed int
	parseT := repeat(minTime, func() {
		for i, p := range pages {
			docs[i] = htmlkit.Parse(p.resp.Body)
			parsed++
		}
	})
	var extracted int
	extractT := repeat(minTime, func() {
		for i, p := range pages {
			navcalc.PageToObjects(docs[i], p.resp.URL)
			extracted++
		}
	})
	var rendered int
	renderT := repeat(minTime, func() {
		for _, p := range b.recorded {
			if _, ferr := b.world.Server.Fetch(p.req); ferr != nil && err == nil {
				err = fmt.Errorf("rendering %s: %w", p.req.Key(), ferr)
			}
			rendered++
		}
	})
	if err != nil {
		return nil, err
	}
	us := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(max(n, 1)) }
	return map[string]metric{
		"ur.plan_us":                  {us(planT, plans), "us"},
		"htmlkit.parse_us_per_page":   {us(parseT, parsed), "us"},
		"navcalc.extract_us_per_page": {us(extractT, extracted), "us"},
		"sites.render_us_per_page":    {us(renderT, rendered), "us"},
	}, nil
}

// repeat runs pass until at least minTime has elapsed and returns the
// time taken.
func repeat(minTime time.Duration, pass func()) time.Duration {
	start := time.Now()
	for {
		pass()
		if d := time.Since(start); d >= minTime {
			return d
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
