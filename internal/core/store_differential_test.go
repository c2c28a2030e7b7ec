package core

import (
	"context"
	"testing"

	"webbase/internal/sites"
	"webbase/internal/ur"
)

// TestStoreDifferential is the determinism proof for the durable state
// tier: the store is strictly below the in-memory stacks, so for a corpus
// of query shapes the observable outcome — answer bytes, skipped objects,
// degradation report, stream deliveries — is byte-identical across
// store-off, store-on-cold (empty state dir) and store-on-warm (a state
// dir pre-warmed by a previous process), at Workers=1 and Workers=8.
// Only fetch economics may differ (warm serves from disk), never content.
func TestStoreDifferential(t *testing.T) {
	queries := []struct{ name, query string }{
		{"wide", wideCarQuery},
		{"dependent-join", "SELECT Make, Model, Year, Price, BBPrice " +
			"WHERE Make = 'ford' AND Model = 'escort' AND Condition = 'good' AND Price < BBPrice"},
		{"order-by-limit", "SELECT Make, Model, Price WHERE Make = 'ford' ORDER BY Price LIMIT 2"},
	}
	for _, tc := range queries {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// run evaluates the query on a fresh webbase (dir = "" means
			// store off) and folds the stream deliveries plus the buffered
			// outcome into one comparable string.
			run := func(workers int, dir string) string {
				cfg := Config{Fetcher: sites.BuildWorld().Server, Workers: workers, StateDir: dir}
				wb, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer wb.Close()
				q, err := ur.ParseQuery(wb.UR, tc.query)
				if err != nil {
					t.Fatal(err)
				}
				var ds []ur.ObjectDelivery
				res, _, err := wb.QueryStream(context.Background(), q,
					func(d ur.ObjectDelivery) { ds = append(ds, d) })
				if err != nil {
					t.Fatalf("workers=%d dir=%q: %v", workers, dir, err)
				}
				return renderDeliveries(ds) + "---\n" + renderOutcome(res)
			}
			// warmDir returns a state dir a prior process already populated
			// with this query's pages (flushed through Close).
			warmDir := func(workers int) string {
				dir := t.TempDir()
				run(workers, dir)
				return dir
			}

			base := run(1, "")
			for _, cell := range []struct {
				name    string
				workers int
				dir     string
			}{
				{"off-w8", 8, ""},
				{"cold-w1", 1, t.TempDir()},
				{"cold-w8", 8, t.TempDir()},
				{"warm-w1", 1, warmDir(1)},
				{"warm-w8", 8, warmDir(8)},
			} {
				if got := run(cell.workers, cell.dir); got != base {
					t.Errorf("%s diverges from store-off workers=1\ngot:\n%s\nwant:\n%s",
						cell.name, got, base)
				}
			}
			// And warm really is warm: a second process over a warmed dir
			// answers without any network fetch.
			dir := warmDir(1)
			wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1, StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer wb.Close()
			_, qs, err := wb.QueryString(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if qs.Pages != 0 {
				t.Errorf("warm restart fetched %d pages, want 0", qs.Pages)
			}
		})
	}
}
