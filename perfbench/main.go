// Command perfbench is the repository's benchmark: it serves the
// webbase over loopback HTTP from one process, drives it with a closed
// loop of two callers through the client package, checks every streamed
// answer against a reference computed from the simulated Web, and prints
// end-to-end metrics (or, with --trace 1, per-layer metrics from a
// separately traced run).
//
// The simulated Web is out of the timed path: set-up records every page
// the query pool loads from sites.BuildWorld and the runs are served
// from that recording, which fails closed on any request it never saw.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --suite --runs 10 --seconds 20
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"webbase/client"
	"webbase/internal/core"
	"webbase/internal/logical"
	"webbase/internal/server"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// outDir receives run records, span files and the suite's provenance.
const outDir = "perfbench/out"

const (
	callers     = 2 // closed-loop callers, one connection each
	setupRounds = 3 // set-ups per untraced run; setup_s is their median
)

// A workload is a configuration of the system under the same query pool.
// BENCHMARK.json and README.md give the reason for each.
type workload struct {
	name string
	cfg  core.Config // Fetcher is filled in at set-up
	warm bool        // run every pool query once at set-up to fill the cache
}

var sleepingLatency = func() web.LatencyModel {
	m := core.DefaultLatency
	m.Sleep = true
	return m
}()

// BENCHMARK.json lists cold-net and churn-net; warm-hits is run by hand
// (see README.md).
var workloads = []workload{
	{name: "warm-hits", cfg: core.Config{}, warm: true},
	{name: "cold-net", cfg: core.Config{DisableCache: true, Latency: sleepingLatency, Workers: 8}},
	// A 100ms max-age lets a page expire before chance reuse across
	// queries decides whether it hits; see README.md for why not 1s.
	{name: "churn-net", cfg: core.Config{CacheMaxAge: 100 * time.Millisecond, Latency: sleepingLatency, Workers: 8}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload name: warm-hits, cold-net or churn-net")
		seed    = flag.Int64("seed", 1, "seed of the query pool and the callers' sequences")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		suite   = flag.Bool("suite", false, "run every workload (or --workload) --runs times with successive seeds and summarise")
		runs    = flag.Int("runs", 10, "runs per workload in --suite mode")
	)
	flag.Parse()
	if *suite {
		if err := runSuite(*wname, *seed, *runs, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*wname)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (warm-hits|cold-net|churn-net), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one assembled system under test and what set-up learned.
type bench struct {
	w         workload
	pool      []string
	parsed    []ur.Query
	refs      []answer
	store     *replay
	storeHeap uint64
	recorded  []recorded // requests and pages, for the per-layer calls
	world     *sites.World
	sys       *core.Webbase
	seams     *seams // nil on untraced runs
}

// setup builds the reference answers, the replay store and the system.
func setup(w workload, seed int64, traced bool) (*bench, error) {
	b := &bench{w: w, pool: buildPool(seed)}
	b.world = sites.BuildWorld()

	// Reference answers straight from the simulator: one worker, no
	// cache. The same pass records every page the pool loads.
	rec := newRecorder(b.world.Server)
	refSys, err := core.New(core.Config{Fetcher: rec, Workers: 1, DisableCache: true})
	if err != nil {
		return nil, err
	}
	for _, pq := range b.pool {
		q, err := ur.ParseQuery(refSys.UR, pq)
		if err != nil {
			return nil, fmt.Errorf("pool query %q: %w", pq, err)
		}
		res, _, err := refSys.QueryContext(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", pq, err)
		}
		if len(res.Plan.Objects) == 0 {
			return nil, fmt.Errorf("pool query %q has an empty plan", pq)
		}
		b.parsed = append(b.parsed, q)
		b.refs = append(b.refs, referenceAnswer(res))
	}
	if rec.errors > 0 {
		return nil, fmt.Errorf("the simulator failed %d requests while recording", rec.errors)
	}
	for _, p := range rec.pages {
		b.recorded = append(b.recorded, p)
	}
	sort.Slice(b.recorded, func(i, j int) bool { return b.recorded[i].req.Key() < b.recorded[j].req.Key() })

	// The store is a copy made between two collections, so its heap is
	// known and can be taken out of heap_mb.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.store = newReplay(rec.pages)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		b.storeHeap = m1.HeapAlloc - m0.HeapAlloc
	}

	cfg := w.cfg
	cfg.Fetcher = b.store
	if traced {
		b.seams = newSeams()
		cfg.Fetcher = b.seams.bottom(b.store)
		d := core.UsedCarsDomain
		d.Logical = func(reg *vps.Registry, f web.Fetcher) (*logical.Catalog, error) {
			return logical.StandardCatalog(reg, b.seams.top(f))
		}
		b.sys, err = core.NewDomain(cfg, d)
	} else {
		b.sys, err = core.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if w.warm {
		for i, q := range b.parsed {
			res, _, err := b.sys.QueryContext(context.Background(), q)
			if err != nil {
				return nil, fmt.Errorf("warming with %q: %w", b.pool[i], err)
			}
			if !referenceAnswer(res).equal(b.refs[i]) {
				return nil, fmt.Errorf("warming with %q: answer differs from the reference", b.pool[i])
			}
		}
	}
	return b, nil
}

// serve hosts the system's real HTTP handler on a loopback listener.
// stop shuts the server down and waits for it.
func serve(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// sample is one query as a caller saw it.
type sample struct {
	pool        int
	latency     time.Duration // POST to the last NDJSON byte
	first       time.Duration // POST to the first object event
	ok          bool          // streamed without error and matched the reference
	mismatch    bool          // streamed without error but differed from the reference
	planObjects int           // maximal objects evaluated, from the trailer
}

// loadResult is one closed-loop phase.
type loadResult struct {
	samples []sample
	elapsed time.Duration
}

func (l loadResult) okCount() int {
	n := 0
	for _, s := range l.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// closedLoop runs the callers: each caller sends its next query only
// after the previous stream ended. Callers keep their place in their
// sequences across phases.
type closedLoop struct {
	b          *bench
	seed       int64
	clients    []*client.Client
	transports []*http.Transport
	seqs       []*sequence
}

func newClosedLoop(b *bench, base string, seed int64) (*closedLoop, error) {
	d := &closedLoop{b: b, seed: seed}
	for c := 0; c < callers; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cl, err := client.New(client.Config{
			BaseURL:     base,
			MaxAttempts: 1, // a retry must not hide a failure
			HTTPClient:  &http.Client{Transport: tr},
		})
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, cl)
		d.transports = append(d.transports, tr)
		d.seqs = append(d.seqs, newSequence(seed, c))
	}
	return d, nil
}

// close drops the callers' idle connections, so the server's Shutdown
// does not wait for them.
func (d *closedLoop) close() {
	for _, tr := range d.transports {
		tr.CloseIdleConnections()
	}
}

// phase runs the loop for dur. Queries started before the deadline run to
// completion.
func (d *closedLoop) phase(dur time.Duration) loadResult {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				qi := d.seqs[c].take()
				per[c] = append(per[c], d.one(d.clients[c], qi))
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	out.elapsed = time.Since(start)
	for _, s := range per {
		out.samples = append(out.samples, s...)
	}
	return out
}

// one sends one query and checks its streamed answer.
func (d *closedLoop) one(cl *client.Client, qi int) sample {
	s := sample{pool: qi}
	t0 := time.Now()
	st, err := cl.Query(context.Background(), d.b.pool[qi])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %q: %v\n", d.b.pool[qi], err)
		s.latency = time.Since(t0)
		return s
	}
	defer st.Close()
	var col collector
	for st.Next() {
		if s.first == 0 {
			s.first = time.Since(t0)
		}
		col.add(st.Delivery())
	}
	s.latency = time.Since(t0)
	if err := st.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %q: %v\n", d.b.pool[qi], err)
		return s
	}
	s.planObjects = st.Trailer().Objects
	if !col.answer().equal(d.b.refs[qi]) {
		fmt.Fprintf(os.Stderr, "perfbench: %q: streamed answer differs from the reference\n", d.b.pool[qi])
		s.mismatch = true
		return s
	}
	s.ok = true
	return s
}

// counters are the system's cumulative counters at one instant.
type counters struct {
	hits, misses, pages, deduped int64
	limiterWait, simulated       time.Duration
	served, replayMisses         int64
}

func readCounters(b *bench) counters {
	st := b.sys.Stats()
	c := counters{pages: st.Pages(), deduped: st.Deduped(), limiterWait: st.LimiterWait(),
		simulated: st.SimulatedLatency(), served: b.store.served.Load(), replayMisses: b.store.misses.Load()}
	if ca := b.sys.Cache(); ca != nil {
		c.hits, c.misses = ca.Hits(), ca.Misses()
	}
	return c
}

// navigated is the number of page loads the engine made: cache hits and
// fills with the cache on, network fetches plus merged duplicates with
// it off.
func (c counters) navigated(cacheOn bool) int64 {
	if cacheOn {
		return c.hits + c.misses
	}
	return c.pages + c.deduped
}

func (c counters) sub(o counters) counters {
	return counters{hits: c.hits - o.hits, misses: c.misses - o.misses, pages: c.pages - o.pages,
		deduped: c.deduped - o.deduped, limiterWait: c.limiterWait - o.limiterWait,
		simulated: c.simulated - o.simulated, served: c.served - o.served, replayMisses: c.replayMisses - o.replayMisses}
}

func warmupFor(dur time.Duration) time.Duration {
	return min(max(dur/5, 200*time.Millisecond), 2*time.Second)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run is one invocation: set-up, warm-up, measured phase, report.
func run(w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rounds := setupRounds
	if traced {
		rounds = 1
	}
	var setupTimes []float64
	var b *bench
	for i := 0; i < rounds; i++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = setup(w, seed, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	if !traced {
		b.world, b.recorded = nil, nil // the untraced run needs neither; keep them out of heap_mb
	}

	srv, err := server.New(server.Config{System: b.sys})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if traced {
		h = b.seams.handler(h)
	}
	base, stop, err := serve(h)
	if err != nil {
		return nil, err
	}
	defer stop()
	d, err := newClosedLoop(b, base, seed)
	if err != nil {
		return nil, err
	}
	defer d.close()

	pages, kb := b.store.workingSet()
	fmt.Printf("workload %s seed %d: pool %d queries, working set %d pages / %.1f KB\n", w.name, seed, len(b.pool), pages, kb)
	fmt.Printf("env: %s\n", envLine())

	warm := d.phase(warmupFor(dur))
	if traced {
		return runTraced(b, d, dur, warm)
	}

	before := readCounters(b)
	lr := d.phase(dur)
	delta := readCounters(b).sub(before)

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heap := float64(m.HeapAlloc) - float64(b.storeHeap)

	res, rep := e2eMetrics(b, lr, warm, delta, setupTimes, heap)
	printRecord(rep, res)
	return res, writeRecord(w.name, seed, false, rep, res)
}

// report holds the figures printed beside the metrics.
type report struct {
	ok, wrong, failed, attempted int
	replayMisses                 int64
	sitePagesPerQuery            float64
	errorRatio                   float64
	info                         map[string]float64
}

func e2eMetrics(b *bench, lr, warm loadResult, delta counters, setupTimes []float64, heap float64) (*result, report) {
	var lat, first []float64
	rep := report{attempted: len(lr.samples), replayMisses: delta.replayMisses}
	for _, s := range lr.samples {
		switch {
		case s.ok:
			rep.ok++
			lat = append(lat, ms(s.latency))
			first = append(first, ms(s.first))
		case s.mismatch:
			rep.wrong++
		default:
			rep.failed++
		}
	}
	for _, s := range warm.samples {
		if !s.ok {
			rep.failed++ // a failure while warming up still fails the run
			rep.attempted++
		}
	}
	completed := float64(max(rep.ok, 1))
	rep.sitePagesPerQuery = float64(delta.served) / completed
	rep.errorRatio = float64(rep.wrong+rep.failed) / float64(max(rep.attempted, 1))
	cacheOn := b.sys.Cache() != nil
	res := &result{
		Correct:   rep.wrong == 0 && rep.failed == 0 && rep.replayMisses == 0 && rep.ok > 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.wrong + rep.failed,
		Metrics: map[string]metric{
			"latency_p50_ms":      {percentile(lat, 50), "ms"},
			"latency_p90_ms":      {percentile(lat, 90), "ms"},
			"first_object_p50_ms": {percentile(first, 50), "ms"},
			"throughput_qps":      {float64(rep.ok) / lr.elapsed.Seconds(), "1/s"},
			"pages_per_query":     {float64(delta.navigated(cacheOn)) / completed, "count"},
			"ok_ratio":            {float64(rep.ok) / float64(max(rep.attempted, 1)), "ratio"},
			"heap_mb":             {heap / (1 << 20), "MB"},
			"setup_s":             {median(setupTimes), "s"},
		},
	}
	return res, rep
}

func printRecord(rep report, res *result) {
	fmt.Printf("queries: %d attempted, %d ok, %d wrong, %d failed; replay_misses %d; error_ratio %.4f; site_pages_per_query %.2f\n",
		rep.attempted, rep.ok, rep.wrong, rep.failed, rep.replayMisses, rep.errorRatio, rep.sitePagesPerQuery)
	for _, k := range sortedKeys(rep.info) {
		fmt.Printf("  %-32s %12.4f\n", k, rep.info[k])
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("  %-32s %12.4f %s\n", k, m.Value, m.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeRecord keeps the run's provenance and every figure it printed.
func writeRecord(name string, seed int64, traced bool, rep report, res *result) error {
	rec := map[string]any{
		"workload": name, "seed": seed, "trace": traced, "env": env(),
		"attempted": rep.attempted, "ok": rep.ok, "wrong": rep.wrong, "failed": rep.failed,
		"replay_misses": rep.replayMisses, "error_ratio": rep.errorRatio,
		"site_pages_per_query": rep.sitePagesPerQuery, "info": rep.info, "result": res,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", name, seed, t)), data, 0o644)
}

// env is the run's provenance.
func env() map[string]any {
	return map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

func envLine() string {
	e := env()
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q", e["go"], e["goos"], e["goarch"], e["gomaxprocs"], e["nproc"], e["cpu"])
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
