package core

import (
	"context"
	"fmt"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/sites"
	"webbase/internal/ur"
)

// The differential property suite behind access-relevance pruning: for a
// corpus of query shapes (selection constants present and absent, ORDER
// BY, LIMIT 0/1/n, dependent joins, statically unsatisfiable clauses),
// the pruned evaluation every query runs must be observationally
// identical to the unpruned reference (newWebbase with prune off) —
// byte-identical answer relation, skipped objects, degradation report and
// stream deliveries — at Workers=1 and Workers=8, while never fetching
// more pages and fetching strictly fewer on the seeded cases where
// pruning provably bites.

// newWebbase builds a webbase; prune=false switches it to the unpruned
// reference evaluation the differential tests compare against.
func newWebbase(build func(Config) (*Webbase, error), cfg Config, prune bool) (*Webbase, error) {
	wb, err := build(cfg)
	if err != nil {
		return nil, err
	}
	wb.unpruned = !prune
	return wb, nil
}

type pruneDiffDomain struct {
	name  string
	build func(cfg Config) (*Webbase, error)
}

func pruneDiffDomains() []pruneDiffDomain {
	return []pruneDiffDomain{
		{
			name: "usedcars",
			build: func(cfg Config) (*Webbase, error) {
				cfg.Fetcher = sites.BuildWorld().Server
				return New(cfg)
			},
		},
		{
			name: "apartments",
			build: func(cfg Config) (*Webbase, error) {
				cfg.Fetcher = apartments.BuildWorld().Server
				return NewDomain(cfg, Domain{
					Registry: apartments.Registry,
					Logical:  apartments.Logical,
					UR:       apartments.UR,
				})
			},
		},
	}
}

// pruneDiffCorpus is the generated query corpus. wantStrict marks the
// seeded cases where pruning must fetch strictly fewer pages at
// Workers=1 — a statically unsatisfiable clause (no access is relevant)
// and a LIMIT already satisfied by the first plan-order objects.
var pruneDiffCorpus = map[string][]struct {
	name       string
	query      string
	wantStrict bool
}{
	"usedcars": {
		{name: "no-where", query: "SELECT Make, Model, Year, Price"},
		{name: "eq-constant", query: "SELECT Make, Model, Safety WHERE Make = 'honda'"},
		{name: "dependent-join", query: "SELECT Make, Model, Year, Price, BBPrice " +
			"WHERE Make = 'ford' AND Model = 'escort' AND Condition = 'good' AND Price < BBPrice"},
		{name: "wide", query: "SELECT Make, Model, Year, Price, BBPrice, Contact " +
			"WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' " +
			"AND Condition = 'good' AND Price < BBPrice"},
		{name: "order-by", query: "SELECT Make, Model, Price WHERE Make = 'ford' ORDER BY Price DESC"},
		{name: "order-by-limit", query: "SELECT Make, Model, Price WHERE Make = 'ford' " +
			"ORDER BY Price LIMIT 2"},
		{name: "order-discharged-limit", query: "SELECT Make, Model, Price WHERE Make = 'jaguar' " +
			"ORDER BY Make LIMIT 2"},
		{name: "limit-zero", query: "SELECT Make, Model WHERE Make = 'bmw' LIMIT 0"},
		{name: "limit-one", query: "SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1",
			wantStrict: true},
		{name: "limit-n", query: "SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 3",
			wantStrict: true},
		{name: "unsat-eq", query: "SELECT Make, Model WHERE Make = 'jaguar' AND Make = 'ford'",
			wantStrict: true},
		{name: "unsat-range", query: "SELECT Make, Model, Year WHERE Make = 'ford' " +
			"AND Year >= 1995 AND Year <= 1992", wantStrict: true},
		{name: "range-sat", query: "SELECT Make, Model, Year WHERE Year >= 1990 AND Year <= 1999"},
	},
	"apartments": {
		{name: "dependent-join", query: "SELECT Neighborhood, Rent, MedianRent, Contact " +
			"WHERE Borough = 'brooklyn' AND Bedrooms = 2 AND Rent < MedianRent"},
		{name: "order-by-limit", query: "SELECT Neighborhood, Rent WHERE Borough = 'queens' " +
			"AND Bedrooms = 1 ORDER BY Rent LIMIT 2"},
		{name: "unsat-eq", query: "SELECT Neighborhood, Rent WHERE Borough = 'brooklyn' " +
			"AND Borough = 'queens'", wantStrict: true},
	},
}

// renderOutcome flattens everything a caller can observe about a buffered
// query: the answer bytes, the skipped objects, the degradation report.
func renderOutcome(res *ur.Result) string {
	out := res.Relation.String() + "\nskipped: " + fmt.Sprint(res.Skipped)
	if res.Degradation != nil {
		out += "\ndegraded: " + res.Degradation.String()
	}
	return out
}

// renderDeliveries flattens a stream's delivery sequence.
func renderDeliveries(ds []ur.ObjectDelivery) string {
	out := ""
	for _, d := range ds {
		out += fmt.Sprintf("#%d %v tuples=%v", d.Index, d.Object, d.Tuples)
		if d.Failure != nil {
			out += fmt.Sprintf(" failure=%v", *d.Failure)
		}
		if len(d.Skipped) > 0 {
			out += fmt.Sprintf(" skipped=%v", d.Skipped)
		}
		out += "\n"
	}
	return out
}

func TestPruneDifferential(t *testing.T) {
	for _, dom := range pruneDiffDomains() {
		dom := dom
		t.Run(dom.name, func(t *testing.T) {
			sawStrict := false
			for _, tc := range pruneDiffCorpus[dom.name] {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					type outcome struct {
						rendered string
						pages    int64
					}
					// workers × prune matrix, every cell on a fresh webbase
					// so caches cannot leak savings across runs.
					run := func(workers int, prune bool) outcome {
						wb, err := newWebbase(dom.build, Config{Workers: workers}, prune)
						if err != nil {
							t.Fatal(err)
						}
						res, qs, err := wb.QueryString(context.Background(), tc.query)
						if err != nil {
							t.Fatalf("workers=%d prune=%v: %v", workers, prune, err)
						}
						if prune {
							var byReason int64
							for _, n := range qs.PrunedByReason {
								byReason += n
							}
							if byReason != qs.PrunedFetches {
								t.Errorf("PrunedByReason sums to %d, PrunedFetches=%d",
									byReason, qs.PrunedFetches)
							}
						} else if qs.PrunedFetches != 0 {
							t.Errorf("pruning disabled but PrunedFetches=%d", qs.PrunedFetches)
						}
						return outcome{rendered: renderOutcome(res), pages: qs.Pages}
					}
					base := run(1, false)
					for _, cell := range []struct {
						workers int
						prune   bool
					}{{1, true}, {8, false}, {8, true}} {
						got := run(cell.workers, cell.prune)
						if got.rendered != base.rendered {
							t.Errorf("workers=%d prune=%v diverges from workers=1 prune=off\ngot:\n%s\nwant:\n%s",
								cell.workers, cell.prune, got.rendered, base.rendered)
						}
					}
					// Fetch economics at the deterministic worker count:
					// pruning never fetches more, and strictly fewer on the
					// seeded cases.
					pruned := run(1, true)
					if pruned.pages > base.pages {
						t.Errorf("pruning fetched more pages: %d > %d", pruned.pages, base.pages)
					}
					if tc.wantStrict {
						if pruned.pages >= base.pages {
							t.Errorf("seeded case: want strictly fewer pages, got %d vs %d",
								pruned.pages, base.pages)
						} else {
							sawStrict = true
						}
					}
				})
			}
			if !sawStrict && !t.Failed() {
				t.Error("no seeded case showed a strict fetch reduction")
			}
		})
	}
}

// TestPruneDifferentialStream repeats the differential over the streaming
// interface: the delivery sequence (plan-order objects for streamable
// queries, the single buffered terminal delivery for ORDER BY / LIMIT
// ones) must be byte-identical with pruning on and off at both worker
// counts.
func TestPruneDifferentialStream(t *testing.T) {
	for _, dom := range pruneDiffDomains() {
		dom := dom
		t.Run(dom.name, func(t *testing.T) {
			for _, tc := range pruneDiffCorpus[dom.name] {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					run := func(workers int, prune bool) string {
						wb, err := newWebbase(dom.build, Config{Workers: workers}, prune)
						if err != nil {
							t.Fatal(err)
						}
						q, err := ur.ParseQuery(wb.UR, tc.query)
						if err != nil {
							t.Fatal(err)
						}
						var ds []ur.ObjectDelivery
						res, _, err := wb.QueryStream(context.Background(), q,
							func(d ur.ObjectDelivery) { ds = append(ds, d) })
						if err != nil {
							t.Fatalf("workers=%d prune=%v: %v", workers, prune, err)
						}
						return renderDeliveries(ds) + "---\n" + renderOutcome(res)
					}
					base := run(1, false)
					for _, cell := range []struct {
						workers int
						prune   bool
					}{{1, true}, {8, false}, {8, true}} {
						if got := run(cell.workers, cell.prune); got != base {
							t.Errorf("stream workers=%d prune=%v diverges\ngot:\n%s\nwant:\n%s",
								cell.workers, cell.prune, got, base)
						}
					}
				})
			}
		})
	}
}
