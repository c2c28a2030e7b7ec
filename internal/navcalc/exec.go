package navcalc

import (
	"context"
	"errors"
	"fmt"

	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// ErrNavigationFailed is returned when a navigation expression has no
// successful execution — the site's structure no longer matches the
// expression (the staleness condition Section 7's map maintenance
// discusses), or the inputs do not lead to any data.
var ErrNavigationFailed = errors.New("navcalc: navigation expression has no successful execution")

// Expression is an executable navigation expression: a Transaction F-logic
// goal plus the rule program it may call into, the URL the navigation
// starts from, and the schema of the tuples it collects.
type Expression struct {
	Name     string
	StartURL string
	// MaxPages caps the pages one execution may fetch (0 = unlimited) —
	// runaway protection against sites whose pagination never ends.
	MaxPages int
	// StartURLVar, when non-empty, names the input binding that supplies
	// the start URL at execution time, overriding StartURL. This is how
	// handles keyed on a URL attribute (newsdayCarFeatures(Url, ...)) jump
	// straight to a page deep inside a site.
	StartURLVar string
	Schema      relation.Schema
	Program     *tlogic.Program
	Goal        tlogic.Formula
}

// String renders the expression with its rules, the way Figure 4 prints
// the Newsday process.
func (e *Expression) String() string {
	return fmt.Sprintf("%s(%v) ← %s\n%s", e.Name, e.Schema, e.Goal, e.Program)
}

// ExecInfo reports what an execution did.
type ExecInfo struct {
	PathLength int // number of states the successful path passed through
	Tuples     int // tuples collected
}

// Execute runs the expression against the fetcher with the given input
// bindings (attribute name → value, e.g. {"Make": "ford"}) and returns the
// collected relation named name. The navigation aborts at the next page
// load once ctx is done.
func (e *Expression) Execute(ctx context.Context, f web.Fetcher, inputs map[string]string) (*relation.Relation, *ExecInfo, error) {
	start := e.StartURL
	if e.StartURLVar != "" {
		v, ok := inputs[e.StartURLVar]
		if !ok || v == "" {
			return nil, nil, fmt.Errorf("%w: %s requires input %q for its start URL",
				ErrNavigationFailed, e.Name, e.StartURLVar)
		}
		start = v
	}
	st, err := NewBrowseState(ctx, f, start, e.Schema, e.MaxPages)
	if err != nil {
		return nil, nil, fmt.Errorf("navcalc: fetching start page of %s: %w", e.Name, err)
	}
	env := tlogic.Env{}
	for k, v := range inputs {
		env = env.With(k, v)
	}
	in := &tlogic.Interp{Program: e.Program}
	out, path, ok, err := in.Run(e.Goal, st, env)
	if err != nil {
		return nil, nil, fmt.Errorf("navcalc: executing %s: %w", e.Name, err)
	}
	if !ok {
		// Navigation within one execution is sequential, so the recorded
		// failure is schedule-independent; wrapping it preserves the error
		// taxonomy (IsOutage/FailingHost) through the backtracking.
		if last := st.lastNavError(); last != nil {
			return nil, nil, fmt.Errorf("%w: %s: last navigation failure: %w",
				ErrNavigationFailed, e.Name, last)
		}
		// Every fetch succeeded, yet the expression had no successful
		// execution. If the failure's evidence is structural — a mapped
		// link, form, field or data table missing from a page we actually
		// received — and no branch failed merely for lack of an input
		// binding, the site has drifted from its map: classify as drift,
		// attributed to the start host, so the health tracker can
		// quarantine and remap it.
		if st.budget.sawStructural && !st.budget.sawInputShortfall {
			return nil, nil, web.MarkDrift(&web.HostError{
				Host: web.HostOf(start),
				Err: fmt.Errorf("%w: %s: site answered but its pages no longer match the navigation map",
					ErrNavigationFailed, e.Name),
			})
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrNavigationFailed, e.Name)
	}
	final := out.State.(*BrowseState)
	rel := final.Relation(e.Name)
	return rel, &ExecInfo{PathLength: len(path), Tuples: rel.Len()}, nil
}

// CollectLoop builds the canonical pagination idiom of Figure 2: a rule
// named ruleName that extracts the current page and then either follows
// the named link (typically "More") and recurses, or stops.
//
//	ruleName ← extract ⊗ (follow(link) ⊗ ruleName ∨ ε)
func CollectLoop(program *tlogic.Program, ruleName string, spec ExtractSpec, moreLink string) tlogic.Formula {
	program.Define(ruleName, tlogic.Seq(
		Extract(spec),
		tlogic.Choice{
			Left:  tlogic.Seq(Follow(moreLink), tlogic.Call{Rule: ruleName}),
			Right: tlogic.Empty{},
		},
	))
	return tlogic.Call{Rule: ruleName}
}
