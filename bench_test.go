// Benchmarks regenerating every quantitative artifact of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark notes
// the experiment id from DESIGN.md's per-experiment index.
package webbase_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase"
	"webbase/internal/algebra"
	"webbase/internal/carmaps"
	"webbase/internal/core"
	"webbase/internal/htmlkit"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// T1 — Table 1: populating every VPS relation once (navigation +
// extraction cost per relation).
func BenchmarkTable1VPSPopulate(b *testing.B) {
	world := sites.BuildWorld()
	reg, err := vps.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	for _, ri := range reg.Relations() {
		name := ri.Name
		if name == "newsdayCarFeatures" {
			continue // needs a live Url; covered in the newsday bench path
		}
		b.Run(name, func(b *testing.B) {
			inputs := core.TimingQueryInputs(name)
			for i := 0; i < b.N; i++ {
				if _, _, err := reg.Populate(context.Background(), world.Server, name, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// S7b — the Section 7 timing table: per-site evaluation of
// SELECT make, model, year, price WHERE make=ford AND model=escort.
// b.ReportMetric carries the pages-navigated column.
func BenchmarkTableSiteTimings(b *testing.B) {
	world := sites.BuildWorld()
	reg, err := vps.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range core.TimingTableRelations {
		name := name
		b.Run(name, func(b *testing.B) {
			inputs := core.TimingQueryInputs(name)
			var pages int64
			for i := 0; i < b.N; i++ {
				stats := &web.Stats{}
				f := web.Counting(world.Server, stats)
				if _, _, err := reg.Populate(context.Background(), f, name, inputs); err != nil {
					b.Fatal(err)
				}
				pages = stats.Pages()
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// S7a — Section 7 map-builder statistics: replaying all mapping-by-example
// sessions. Metrics carry the Newsday objects/attributes counts.
func BenchmarkMapBuilder(b *testing.B) {
	world := sites.BuildWorld()
	builder := &mapbuilder.Builder{Fetcher: world.Server}
	var newsdayObjects, newsdayAttrs, manualPct float64
	for i := 0; i < b.N; i++ {
		stats, err := core.MapStats(world.Server)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range stats {
			if s.Site == "newsday" {
				newsdayObjects = float64(s.Objects)
				newsdayAttrs = float64(s.Attributes)
				manualPct = 100 * s.ManualRatio()
			}
		}
	}
	_ = builder
	b.ReportMetric(newsdayObjects, "newsday-objects")
	b.ReportMetric(newsdayAttrs, "newsday-attrs")
	b.ReportMetric(manualPct, "manual-%")
}

// S7c — parallelization: all ten timing-table sites under a sleeping
// network model, swept over worker counts. Elapsed time is the metric;
// the paper's conclusion is the 1→10 worker drop.
func BenchmarkParallelEvaluation(b *testing.B) {
	world := sites.BuildWorld()
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond, Sleep: true}
	for _, workers := range []int{1, 2, 4, 8, 10} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelSweep(world.Server, model, []int{workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// S7c extension — site-count scaling: the parallel sweep over generated
// homogeneous dealer fleets, past the paper's ten sites.
func BenchmarkScaledSweep(b *testing.B) {
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond}
	for _, n := range []int{10, 25, 50} {
		for _, workers := range []int{1, 16} {
			b.Run(fmt.Sprintf("sites=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ScaledSweep(n, model, []int{workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// A3 — caching ablation: the same query cold (every page fetched) vs warm
// (every page from cache).
func BenchmarkCacheEffect(b *testing.B) {
	world := sites.BuildWorld()
	query := "SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'"

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := sys.QueryString(context.Background(), query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sys.QueryString(context.Background(), query); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.QueryString(context.Background(), query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// S7c at the query level — one end-to-end query, sequential (Workers=1)
// vs parallel: union branches, dependent-join handle invocations and
// maximal objects all fan out under the sleeping latency model. A fresh
// webbase per iteration keeps the cache cold, so every fetch pays the
// modeled network; metrics carry the fetches the singleflight saved and
// how wide the fetch stack actually ran.
func BenchmarkQuerySequentialVsParallel(b *testing.B) {
	world := sites.BuildWorld()
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond, Sleep: true}
	queries := []struct{ name, q string }{
		// Eight ad sites fan out wide; the Workers=4 run comes in well
		// over 2x faster than sequential.
		{"wide", "SELECT Make, Model, Year, Price, Safety WHERE Make = 'honda' AND Model = 'civic'"},
		// Both maximal objects race to the same kellys form submissions;
		// the singleflight absorbs the duplicates (deduped-fetches), at
		// the cost of a longer sequential tail behind the dependent join.
		{"bbprice", "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'ford' AND Model = 'escort' AND Condition = 'good'"},
	}
	for _, q := range queries {
		for _, workers := range []int{1, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", q.name, workers), func(b *testing.B) {
				var deduped, peak float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys, err := webbase.New(webbase.Config{Fetcher: world.Server, Latency: model, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					_, stats, err := sys.QueryString(context.Background(), q.q)
					if err != nil {
						b.Fatal(err)
					}
					deduped = float64(stats.Deduped)
					peak = float64(stats.PeakInFlight)
				}
				b.ReportMetric(deduped, "deduped-fetches")
				b.ReportMetric(peak, "peak-inflight")
			})
		}
	}
}

// S7d — fetch vs parse split: parsing throughput over the actual site
// corpus, the cost Section 7 singles out next to fetching.
func BenchmarkParseVsFetch(b *testing.B) {
	world := sites.BuildWorld()
	// Collect a corpus: every page of a full newsday navigation.
	var bodies [][]byte
	recorder := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := world.Server.Fetch(req)
		if err == nil {
			bodies = append(bodies, resp.Body)
		}
		return resp, err
	})
	expr, err := navmap.Translate(carmaps.Newsday())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := expr.Execute(context.Background(), recorder, map[string]string{"Make": "ford"}); err != nil {
		b.Fatal(err)
	}
	var total int
	for _, body := range bodies {
		total += len(body)
	}

	b.Run("fetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := expr.Execute(context.Background(), world.Server, map[string]string{"Make": "ford"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				htmlkit.Parse(body)
			}
		}
	})
}

// A1 — join ordering ablation: the complete greedy closure vs the
// exhaustive min-cost planner over growing join chains
// R1(A1) ⋈ R2(A1→A2) ⋈ ... where each Ri's binding needs its
// predecessor's attribute.
func BenchmarkJoinOrdering(b *testing.B) {
	buildChain := func(n int) []algebra.Operand {
		ops := make([]algebra.Operand, n)
		for i := 0; i < n; i++ {
			ops[i] = algebra.Operand{
				Name:     fmt.Sprintf("r%d", i),
				Schema:   relation.NewSchema(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1)),
				Bindings: []relation.AttrSet{relation.NewAttrSet(fmt.Sprintf("A%d", i))},
			}
		}
		// Reverse so the planner has to discover the chain order.
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			ops[i], ops[j] = ops[j], ops[i]
		}
		return ops
	}
	for _, n := range []int{4, 8, 12, 16} {
		ops := buildChain(n)
		bound := relation.NewAttrSet("A0")
		b.Run(fmt.Sprintf("greedy/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.GreedyOrder(ops, bound); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n <= 16 {
			b.Run(fmt.Sprintf("mincost/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := algebra.MinCostOrder(ops, bound, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// A2 — linear-time map→expression translation: translation time against
// map size (a chain of n pages ending in a data node).
func BenchmarkTranslateLinear(b *testing.B) {
	buildMap := func(n int) *navmap.Map {
		m := navmap.New("chain", "http://x/", relation.NewSchema("A"))
		for i := 0; i < n; i++ {
			id := navmap.NodeID(fmt.Sprintf("n%d", i))
			node := &navmap.Node{ID: id}
			if i == n-1 {
				node.IsData = true
				node.Extract = navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "A", Attr: "A"}}}
			}
			m.AddNode(node)
			if i > 0 {
				m.AddEdge(navmap.NodeID(fmt.Sprintf("n%d", i-1)),
					navmap.Action{Kind: navmap.ActFollowLink, LinkName: fmt.Sprintf("l%d", i)}, id)
			}
		}
		return m
	}
	for _, n := range []int{10, 100, 1000} {
		m := buildMap(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := navmap.Translate(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A4 — faulty-HTML recovery: lenient parsing throughput on well-formed vs
// deliberately malformed markup.
func BenchmarkLenientParse(b *testing.B) {
	clean := []byte(strings.Repeat(
		`<tr><td>ford</td><td>escort</td><td>1994</td><td>$3,000</td></tr>`, 200))
	sloppy := []byte(strings.Repeat(
		`<TR><td>ford<td>escort<td>1994<td>$3,000 &amp junk <a href='x`, 200))
	b.Run("wellformed", func(b *testing.B) {
		b.SetBytes(int64(len(clean)))
		for i := 0; i < b.N; i++ {
			htmlkit.Parse(clean)
		}
	})
	b.Run("malformed", func(b *testing.B) {
		b.SetBytes(int64(len(sloppy)))
		for i := 0; i < b.N; i++ {
			htmlkit.Parse(sloppy)
		}
	})
}

// E62 — maximal-object enumeration cost for the paper's Example 6.2
// configuration and for the operational UsedCarUR.
func BenchmarkMaximalObjects(b *testing.B) {
	ex, err := ur.Example62()
	if err != nil {
		b.Fatal(err)
	}
	rels := ex.Hierarchy.Relations()
	b.Run("example6.2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ur.MaximalObjects(rels, ex.Rules)
		}
	})
	op, err := ur.UsedCarUR()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("usedcarur", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ur.MaximalObjects(op.Hierarchy.Relations(), op.Rules)
		}
	})
}

// Headline — the paper's Section 1 query end to end (warm cache excluded:
// a fresh webbase per iteration).
func BenchmarkHeadlineQuery(b *testing.B) {
	world := sites.BuildWorld()
	query := "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'jaguar' AND Year >= 1993 " +
		"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice"
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := sys.QueryString(context.Background(), query); err != nil {
			b.Fatal(err)
		}
	}
}

// R1 — robustness: the headline query healthy vs with one classifieds
// site down. The degraded run skips the dead maximal object but pays the
// failed probes and retries; the metrics carry the answer size and how
// many objects the degradation dropped (recorded in BENCH_degraded.json).
func BenchmarkDegradedQuery(b *testing.B) {
	world := sites.BuildWorld()
	query := "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'jaguar' AND Year >= 1993 " +
		"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice"
	down := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if web.HostOf(req.URL) == sites.NewsdayHost {
			return nil, fmt.Errorf("host %s: connection refused", sites.NewsdayHost)
		}
		return world.Server.Fetch(req)
	})
	run := func(b *testing.B, f web.Fetcher) {
		var tuples, degraded float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, err := webbase.New(webbase.Config{Fetcher: f, Retries: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, _, err := sys.QueryString(context.Background(), query)
			if err != nil {
				b.Fatal(err)
			}
			tuples = float64(res.Relation.Len())
			if res.Degradation != nil {
				degraded = float64(len(res.Degradation.Unavailable))
			}
		}
		b.ReportMetric(tuples, "tuples")
		b.ReportMetric(degraded, "degraded-objects")
	}
	b.Run("healthy", func(b *testing.B) { run(b, world.Server) })
	b.Run("newsday-down", func(b *testing.B) { run(b, down) })
}

// R2 — overload protection: 32 concurrent clients hammering a webbase
// whose busiest classifieds host has a deterministic straggler problem
// (every 7th request takes 25ms instead of 1ms). The unprotected run lets
// all 32 queries pile onto the host's four fetch slots; the protected run
// admits 8 at a time (queueing 8, shedding the rest with ErrShedded) and
// hedges any fetch still unanswered after 3ms. The metrics carry the
// client-observed p50/p99 of the queries that were served, plus how many
// were shed — the overload-protection trade made explicit (recorded in
// BENCH_overload.json).
func BenchmarkOverloadedQuery(b *testing.B) {
	world := sites.BuildWorld()
	var reqs atomic.Int64
	slow := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if web.HostOf(req.URL) == sites.NewsdayHost {
			if reqs.Add(1)%7 == 0 {
				time.Sleep(25 * time.Millisecond) // the straggler tail
			}
		}
		return world.Server.Fetch(req)
	})
	makes := []string{"ford", "honda", "jaguar", "saab"}
	run := func(b *testing.B, cfg webbase.Config) {
		cfg.Fetcher = slow
		cfg.DisableCache = true // every query pays its own fetches
		sys, err := webbase.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		queries := make([]webbase.Query, len(makes))
		for i, m := range makes {
			q, err := webbase.ParseQuery(sys,
				fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make = '%s'", m))
			if err != nil {
				b.Fatal(err)
			}
			queries[i] = q
		}
		const clients = 32
		var served []time.Duration
		var sheds int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var (
				mu sync.Mutex
				wg sync.WaitGroup
			)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					start := time.Now()
					_, _, err := sys.QueryContext(context.Background(), queries[c%len(queries)])
					lat := time.Since(start)
					mu.Lock()
					defer mu.Unlock()
					if errors.Is(err, webbase.ErrShedded) {
						sheds++
						return
					}
					if err != nil {
						b.Errorf("client %d: %v", c, err)
						return
					}
					served = append(served, lat)
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		sort.Slice(served, func(i, j int) bool { return served[i] < served[j] })
		if len(served) > 0 {
			b.ReportMetric(float64(served[len(served)/2])/1e6, "p50_ms")
			b.ReportMetric(float64(served[len(served)*99/100])/1e6, "p99_ms")
		}
		b.ReportMetric(float64(sheds)/float64(b.N), "sheds/op")
	}
	b.Run("unprotected", func(b *testing.B) { run(b, webbase.Config{}) })
	b.Run("admission-only", func(b *testing.B) {
		run(b, webbase.Config{MaxInFlight: 8, HostLimit: 8, HostQueue: 64})
	})
	b.Run("protected", func(b *testing.B) {
		run(b, webbase.Config{
			MaxInFlight: 8,
			HostLimit:   8,
			HedgeAfter:  8 * time.Millisecond,
			HostQueue:   64,
		})
	})
}

// Optimizer ablation: rewrite cost of the headline query's plan
// expressions, and the whole headline query with and without the rewrite
// (the optimizer is structural; evaluation-time constant pushing keeps the
// page counts equal, so the interesting metric is that optimize adds only
// microseconds).
func BenchmarkOptimize(b *testing.B) {
	world := sites.BuildWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		b.Fatal(err)
	}
	q, err := ur.ParseQuery(sys.UR, "SELECT Make, Price WHERE Make = 'jaguar' AND Year >= 1993 AND Price < BBPrice AND Condition = 'good'")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sys.UR.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range plan.Objects {
			algebra.Optimize(obj.Expr, sys.Logical)
		}
	}
}

// Binding propagation over the standard logical views (the static
// derivation Section 5 performs at design time).
func BenchmarkBindingPropagation(b *testing.B) {
	world := sites.BuildWorld()
	reg, err := vps.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		b.Fatal(err)
	}
	_ = reg
	views := sys.Logical.Views()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range views {
			if _, err := sys.Logical.Bindings(v.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
