// Command webbase runs ad hoc universal-relation queries against the
// simulated car-shopping Web.
//
// Usage:
//
//	webbase [-plan] [-stats] [-latency] "SELECT Make, Price WHERE Make = 'jaguar' AND Price < BBPrice AND Condition = 'good'"
//	webbase -attrs            # list the universal relation's attributes
//	webbase -objects          # list the maximal objects
//	webbase -explain-analyze "SELECT ..."   # run and print actual per-operator costs
//	webbase -trace out.json  "SELECT ..."   # run and export the span tree as JSON
//	webbase -metrics         "SELECT ..."   # print the metrics snapshot afterwards
//	webbase -failevery 3 -retries 2 "SELECT ..."       # chaos: survive a flaky Web
//	webbase -failevery 3 -strict    "SELECT ..."       # ... or fail fast instead
//	webbase -breaker-threshold 0.5 -allow-stale "SELECT ..."   # breaker + stale-on-error
//	webbase -max-inflight 8 -queue-depth 8 -deadline 500ms -hedge-after 50ms "SELECT ..."   # overload protection
//	webbase -stats           "SELECT ... LIMIT 3"    # pruned=N: accesses skipped as irrelevant to the answer
//
// The query language is the structured universal relation interface of
// Section 6: name output attributes, constrain others; the system figures
// out which sites to navigate and in what order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"webbase"
)

func main() {
	var (
		showPlan    = flag.Bool("plan", false, "print the query plan (maximal objects and covers)")
		explain     = flag.Bool("explain", false, "explain the query (plan, bindings, handles) without fetching, then exit")
		showStats   = flag.Bool("stats", false, "print fetch statistics")
		withLatency = flag.Bool("latency", false, "simulate network latency (sleeping)")
		listAttrs   = flag.Bool("attrs", false, "list the universal relation's attributes and exit")
		listObjects = flag.Bool("objects", false, "list the maximal objects and exit")
		domain      = flag.String("domain", "usedcars", "application domain: usedcars or apartments")
		workers     = flag.Int("workers", 0, "parallel evaluation width (0 = GOMAXPROCS, 1 = sequential)")
		hostLimit   = flag.Int("hostlimit", 0, "max concurrent fetches per site (0 = default, negative = unlimited)")
		timeout     = flag.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
		analyze     = flag.Bool("explain-analyze", false, "run the query and print the plan annotated with actual per-operator costs")
		traceFile   = flag.String("trace", "", "run the query traced and write the span tree as JSON to this file")
		showMetrics = flag.Bool("metrics", false, "print the webbase metrics snapshot after the query")
		retries     = flag.Int("retries", 0, "retry failed page fetches this many additional times")
		failEvery   = flag.Uint64("failevery", 0, "chaos: deterministically fail roughly every n-th fetch attempt (0 = off)")
		breakerThr  = flag.Float64("breaker-threshold", 0, "per-host circuit-breaker failure-rate threshold in (0,1]; 0 disables the breaker")
		allowStale  = flag.Bool("allow-stale", false, "serve expired cached pages when a site is unreachable (stale-on-error)")
		cacheMaxAge = flag.Duration("cache-maxage", 0, "cached pages older than this no longer count as fresh (0 = never expire)")
		strict      = flag.Bool("strict", false, "fail the whole query on any site outage instead of degrading to the surviving maximal objects")
		deadline    = flag.Duration("deadline", 0, "per-maximal-object time budget; objects over budget degrade out of the answer (0 = none)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently executing queries (0 = unlimited)")
		queueDepth  = flag.Int("queue-depth", 0, "admission control: bounded FIFO wait queue behind -max-inflight; excess queries shed immediately")
		hedgeAfter  = flag.Duration("hedge-after", 0, "issue a second attempt for any fetch still unanswered after this delay (0 = off)")
		hostQueue   = flag.Int("host-queue", 0, "per-host bulkhead wait-queue bound; fetches beyond it are shed (0 = unbounded)")
		hedgeBudget = flag.Int64("hedge-budget", 0, "max hedged (duplicate) fetch attempts per query (0 = unlimited)")
		driftThr    = flag.Int("drift-threshold", 0, "drift reports that confirm a site redesign and quarantine the site (0 = default 2)")
		maxRepairs  = flag.Int("max-repair-attempts", 0, "background remap attempts per quarantined site (0 = default 3)")
		repairWait  = flag.Duration("repair-backoff", 0, "wait before the second remap attempt, doubling per attempt (0 = default 100ms)")
	)
	flag.Parse()

	var cfg webbase.Config
	if *withLatency {
		cfg.Latency = webbase.DefaultLatency
		cfg.Latency.Sleep = true
	}
	cfg.Workers = *workers
	cfg.HostLimit = *hostLimit
	cfg.Retries = *retries
	cfg.AllowStale = *allowStale
	cfg.CacheMaxAge = *cacheMaxAge
	cfg.Strict = *strict
	cfg.Deadline = *deadline
	cfg.MaxInFlight = *maxInflight
	cfg.QueueDepth = *queueDepth
	cfg.HedgeAfter = *hedgeAfter
	cfg.HostQueue = *hostQueue
	cfg.HedgeBudget = *hedgeBudget
	cfg.DriftThreshold = *driftThr
	cfg.MaxRepairAttempts = *maxRepairs
	cfg.RepairBackoff = *repairWait
	if *breakerThr > 0 {
		cfg.Breaker = &webbase.BreakerConfig{FailureRatio: *breakerThr}
	}
	chaos := func(f webbase.Fetcher) webbase.Fetcher {
		if *failEvery > 0 {
			return &webbase.Flaky{Inner: f, FailEvery: *failEvery}
		}
		return f
	}
	var (
		sys *webbase.System
		err error
	)
	switch *domain {
	case "usedcars":
		cfg.Fetcher = chaos(webbase.NewSimulatedWorld().Server)
		sys, err = webbase.New(cfg)
	case "apartments":
		cfg.Fetcher = chaos(webbase.NewApartmentWorld().Server)
		sys, err = webbase.NewApartments(cfg)
	default:
		err = fmt.Errorf("unknown domain %q (usedcars or apartments)", *domain)
	}
	if err != nil {
		fatal(err)
	}

	switch {
	case *listAttrs:
		fmt.Println("UsedCarUR attributes:")
		for _, a := range sys.UR.Hierarchy.AllAttrs() {
			fmt.Println("  " + a)
		}
		return
	case *listObjects:
		fmt.Println("Maximal objects:")
		for _, o := range sys.UR.MaximalObjects() {
			fmt.Println("  " + strings.Join(o, " ⋈ "))
		}
		return
	}

	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		fmt.Fprintln(os.Stderr, "usage: webbase [flags] \"SELECT attrs WHERE conditions\"")
		flag.PrintDefaults()
		os.Exit(2)
	}
	parsed, err := webbase.ParseQuery(sys, query)
	if err != nil {
		fatal(err)
	}
	if *explain {
		out, err := sys.Explain(parsed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *analyze {
		out, err := sys.ExplainAnalyze(ctx, parsed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if *showMetrics {
			fmt.Print(sys.Metrics().Snapshot())
		}
		return
	}
	var (
		res   *webbase.Result
		stats *webbase.QueryStats
		tr    *webbase.Trace
	)
	if *traceFile != "" {
		res, stats, tr, err = sys.QueryStreamTraced(ctx, parsed, nil)
	} else {
		res, stats, err = sys.QueryContext(ctx, parsed)
	}
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		data, err := tr.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceFile, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "webbase: trace written to %s\n", *traceFile)
	}
	if *showPlan {
		fmt.Println(res.Plan)
	}
	out := res.Relation
	if len(parsed.OrderBy) == 0 {
		out = out.SortBy(out.Schema()...) // stable default presentation
	}
	fmt.Print(out)
	fmt.Printf("(%d answers)\n", res.Relation.Len())
	for _, s := range res.Skipped {
		fmt.Printf("note: skipped %s\n", s)
	}
	if res.Degradation != nil {
		fmt.Print("note: partial answer — ", res.Degradation)
	}
	if *showStats {
		fmt.Println(stats)
	}
	if *showMetrics {
		fmt.Print(sys.Metrics().Snapshot())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "webbase:", err)
	os.Exit(1)
}
