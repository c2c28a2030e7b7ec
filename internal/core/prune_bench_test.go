package core

import (
	"context"
	"testing"

	"webbase/internal/sites"
)

// BenchmarkPrunedQuery measures access-relevance pruning on the paper's
// headline query with a LIMIT: the unpruned reference vs the pruned
// evaluation every query runs (Workers=1 so the fetch counts are
// deterministic, a fresh system per iteration so every run pays its own
// fetches). Pruned, statically doomed WHERE combinations are skipped
// pre-fetch and the second plan-order object is never launched once the
// LIMIT is provably satisfied; the metrics carry the page counts and
// pruned-access counts for both modes (recorded in BENCH_pruning.json).
func BenchmarkPrunedQuery(b *testing.B) {
	world := sites.BuildWorld()
	query := "SELECT Make, Model, Year, Price, BBPrice, Contact WHERE Make = 'jaguar' AND Year >= 1993 " +
		"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice LIMIT 3"
	run := func(b *testing.B, prune bool) {
		var pages, pruned, tuples float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			wb, err := newWebbase(New, Config{Fetcher: world.Server, Workers: 1}, prune)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, qs, err := wb.QueryString(context.Background(), query)
			if err != nil {
				b.Fatal(err)
			}
			pages = float64(qs.Pages)
			pruned = float64(qs.PrunedFetches)
			tuples = float64(res.Relation.Len())
		}
		b.ReportMetric(pages, "pages")
		b.ReportMetric(pruned, "pruned")
		b.ReportMetric(tuples, "tuples")
	}
	b.Run("prune-off", func(b *testing.B) { run(b, false) })
	b.Run("prune-on", func(b *testing.B) { run(b, true) })
}
