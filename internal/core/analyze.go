package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"webbase/internal/trace"
	"webbase/internal/ur"
)

// ExplainAnalyze runs the query for real and renders the optimized plan
// annotated with what each operator actually did: per-operator tuple
// counts, handle invocations, page fetches and (when Timings is on via the
// trace renderer) wall time. It is Explain's runtime twin — the paper's
// plan made visible, plus the evidence of what the Web gave back.
//
// The output has two parts. The structural section — plan header, the
// aggregated execution tree, skipped objects — is byte-identical across
// worker counts (minus time=… fields, which StripTimings removes). The
// "totals (volatile)" footer carries the schedule-dependent aggregates:
// which fetches hit the cache, how many were deduplicated onto in-flight
// twins, elapsed wall time. The determinism suite compares everything
// above the footer.
func (wb *Webbase) ExplainAnalyze(ctx context.Context, q ur.Query) (string, error) {
	res, qs, tr, err := wb.QueryStreamTraced(ctx, q, nil)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", q)
	fmt.Fprintf(&sb, "universal relation: %s (%d attributes, %d maximal objects)\n",
		wb.UR.Name, len(wb.UR.Hierarchy.AllAttrs()), len(wb.UR.MaximalObjects()))
	fmt.Fprintf(&sb, "answer: %d tuples\n", res.Relation.Len())

	sb.WriteString("\n=== execution (actual) ===\n")
	sb.WriteString(tr.Render(trace.RenderOptions{Timings: true}))

	if len(res.Skipped) > 0 {
		sb.WriteString("\nskipped objects (binding unsatisfied):\n")
		for _, s := range res.Skipped {
			fmt.Fprintf(&sb, "  %s\n", s)
		}
	}

	sb.WriteString("\n=== totals (volatile) ===\n")
	fmt.Fprintf(&sb, "%s\n", qs)
	// Relevance-pruning footer: how many access attempts the query never
	// made, by decision rule. The unsat-where counts are deterministic at
	// a fixed worker count; the limit counts depend on completion order
	// (like cache hits), which is why the line lives in the volatile
	// section. The pruned=1 spans above carry the per-access detail.
	if qs.PrunedFetches > 0 {
		reasons := make([]string, 0, len(qs.PrunedByReason))
		for r := range qs.PrunedByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		parts := make([]string, len(reasons))
		for i, r := range reasons {
			parts[i] = fmt.Sprintf("%s=%d", r, qs.PrunedByReason[r])
		}
		fmt.Fprintf(&sb, "pruned: %d access(es) skipped by relevance pruning (%s)\n",
			qs.PrunedFetches, strings.Join(parts, " "))
	}
	// The degradation report joins the volatile footer: which hosts are
	// down is a runtime fact, not part of the plan's structure.
	if res.Degradation != nil {
		sb.WriteString(res.Degradation.String())
	}
	return sb.String(), nil
}
