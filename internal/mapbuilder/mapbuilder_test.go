package mapbuilder_test

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/carmaps"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
)

// featuresURLFor returns a concrete newsday car-features URL for session
// recording.
func featuresURLFor(t *testing.T, w *sites.World) string {
	t.Helper()
	expr, err := navmap.Translate(carmaps.Newsday())
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := rel.Get(rel.Tuples()[0], "Url")
	return u.Str()
}

func TestBuildNewsdaySession(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	sessions := carmaps.Sessions(featuresURLFor(t, w))

	var newsday *mapbuilder.Session
	for _, s := range sessions {
		if s.Relation == "newsday" {
			newsday = s
		}
	}
	m, stats, err := b.Build(newsday)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built map invalid: %v", err)
	}
	// Figure 2 shape: 4 distinct page schemas (home, UsedCarPg, carPg,
	// carData). Revisits through mapbuilder.EvRestart must not duplicate nodes.
	nodes, edges := m.Size()
	if nodes != 4 {
		t.Errorf("nodes = %d, want 4:\n%s", nodes, m)
	}
	if edges < 4 {
		t.Errorf("edges = %d, want ≥4:\n%s", edges, m)
	}
	// Both f1 targets recorded: direct-to-data and via carPg.
	dataTargets := 0
	for _, e := range m.Edges() {
		if e.Action.Kind == navmap.ActSubmitForm && e.Action.FormName == "f1" {
			dataTargets++
		}
	}
	if dataTargets != 2 {
		t.Errorf("f1 should have 2 target edges (carPg, carData), got %d", dataTargets)
	}

	// Automation statistics: overwhelmingly automatic, like the paper's
	// "<5% added manually" (our pages are smaller, so allow some slack).
	if stats.Objects == 0 || stats.Attributes == 0 {
		t.Fatalf("no automatic extraction counted: %+v", stats)
	}
	if r := stats.ManualRatio(); r > 0.15 {
		t.Errorf("manual ratio = %.2f, should be small (stats: %+v)", r, stats)
	}
	if stats.PagesLoaded < 5 {
		t.Errorf("pages loaded = %d", stats.PagesLoaded)
	}
	if !strings.Contains(stats.String(), "objects=") {
		t.Error("stats rendering")
	}
}

// TestSessionMapsBehaveLikeHandMaps builds every session's map and checks
// the derived expression produces the same tuples as the hand-written map
// of carmaps — the behavioural equivalence that makes mapping by example
// trustworthy.
func TestSessionMapsBehaveLikeHandMaps(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	featURL := featuresURLFor(t, w)
	hand := carmaps.AllMaps()

	inputsFor := map[string]map[string]string{
		"newsday":            {"Make": "ford", "Model": "escort"},
		"newsdayCarFeatures": {"Url": featURL},
		"nyTimes":            {"Make": "ford", "Model": "escort"},
		"newYorkDaily":       {"Make": "ford"},
		"carPoint":           {"Make": "ford", "Model": "escort"},
		"autoWeb":            {"Make": "ford", "Model": "escort"},
		"wwWheels":           {"Make": "ford", "Model": "escort"},
		"autoConnect":        {"Make": "ford", "Condition": "good"},
		"yahooCars":          {"Make": "ford", "Model": "escort"},
		"kellys":             {"Make": "jaguar", "Model": "xj6", "Year": "1994", "Condition": "good"},
		"carAndDriver":       {"Make": "jaguar"},
		"carReviews":         {"Make": "honda", "Model": "civic"},
		"carFinance":         {"ZipCode": "11201", "Duration": "36"},
	}

	for _, s := range carmaps.Sessions(featURL) {
		s := s
		t.Run(s.Relation, func(t *testing.T) {
			built, _, err := b.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			builtExpr, err := navmap.Translate(built)
			if err != nil {
				t.Fatal(err)
			}
			handExpr, err := navmap.Translate(hand[s.Relation])
			if err != nil {
				t.Fatal(err)
			}
			inputs := inputsFor[s.Relation]
			gotRel, _, err := builtExpr.Execute(context.Background(), w.Server, inputs)
			if err != nil {
				t.Fatalf("built expression: %v", err)
			}
			wantRel, _, err := handExpr.Execute(context.Background(), w.Server, inputs)
			if err != nil {
				t.Fatalf("hand expression: %v", err)
			}
			if gotRel.Len() != wantRel.Len() {
				t.Errorf("built map collected %d tuples, hand map %d", gotRel.Len(), wantRel.Len())
			}
		})
	}
}

// TestBuiltMapExpressionTextRoundTrip: even though builder-generated node
// IDs are punctuation-heavy structural signatures, the derived expression
// formats to parseable text and the re-parsed expression behaves the same.
func TestBuiltMapExpressionTextRoundTrip(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	var newsday *mapbuilder.Session
	for _, s := range carmaps.Sessions(featuresURLFor(t, w)) {
		if s.Relation == "newsday" {
			newsday = s
		}
	}
	m, _, err := b.Build(newsday)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := navmap.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	text := navcalc.FormatExpression(expr)
	reparsed, err := navcalc.ParseExpression(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	in := map[string]string{"Make": "ford", "Model": "escort"}
	a, _, err := expr.Execute(context.Background(), w.Server, in)
	if err != nil {
		t.Fatal(err)
	}
	bb, _, err := reparsed.Execute(context.Background(), w.Server, in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != bb.Len() {
		t.Errorf("tuples %d vs %d", a.Len(), bb.Len())
	}
}

func TestBuildErrors(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}

	// No schema.
	if _, _, err := b.Build(&mapbuilder.Session{Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/"}); err == nil {
		t.Error("schemaless session should fail")
	}
	// Bad start URL.
	_, _, err := b.Build(&mapbuilder.Session{Relation: "x", StartURL: "http://ghost.example/",
		Schema: relation.NewSchema("A")})
	if err == nil {
		t.Error("unknown host should fail")
	}
	// Following a nonexistent link.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvFollow, LinkName: "No Such Link"}},
	})
	if err == nil || !strings.Contains(err.Error(), "no link") {
		t.Errorf("err = %v", err)
	}
	// Submitting a nonexistent form.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/auto",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvSubmit, FormName: "ghost"}},
	})
	if err == nil || !strings.Contains(err.Error(), "no form") {
		t.Errorf("err = %v", err)
	}
	// A session that never marks a data page yields an invalid map.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvFollow, LinkName: "Automobiles"}},
	})
	if err == nil || !strings.Contains(err.Error(), "data page") {
		t.Errorf("err = %v", err)
	}
}

func TestCheckMapCleanOnUnchangedSite(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	for name, m := range carmaps.AllMaps() {
		if name == "newsdayCarFeatures" {
			continue // needs a live Url; covered below
		}
		inputs := map[string]string{"Make": "ford", "Model": "escort",
			"Condition": "good", "ZipCode": "11201", "Duration": "36", "Year": "1994"}
		if name == "kellys" || name == "carAndDriver" {
			inputs["Make"], inputs["Model"] = "jaguar", "xj6"
		}
		drifts, err := b.CheckMap(m, inputs)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(drifts) != 0 {
			t.Errorf("%s: unexpected drift on unchanged site: %v", name, drifts)
		}
	}
}

func TestCheckMapDetectsChanges(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	inputs := map[string]string{"Make": "ford", "Model": "escort"}

	// Renamed link: a map expecting the old link text drifts.
	m := carmaps.Newsday()
	stale := navmap.New("stale", m.StartURL, m.Schema)
	stale.AddNode(&navmap.Node{ID: "home"})
	stale.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "Make", Attr: "Make"}}}})
	stale.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Motorcars"}, "data")
	drifts, err := b.CheckMap(stale, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || !strings.Contains(drifts[0].Problem, "Motorcars") {
		t.Errorf("drifts = %v", drifts)
	}

	// Lost form field: structural change needing manual remapping.
	stale2 := navmap.New("stale2", "http://"+sites.WWWheelsHost+"/", m.Schema)
	stale2.AddNode(&navmap.Node{ID: "home"})
	stale2.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "Make", Attr: "Make"}}}})
	stale2.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "q",
		Fills: []navcalc.FieldFill{navcalc.Fill("color", "Color")}}, "data")
	drifts, err = b.CheckMap(stale2, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || !strings.Contains(drifts[0].Problem, "color") {
		t.Errorf("drifts = %v", drifts)
	}

	// Vanished host.
	stale3 := navmap.New("stale3", "http://gone.example/", m.Schema)
	stale3.AddNode(&navmap.Node{ID: "home", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "A", Attr: "Make"}}}})
	if _, err := b.CheckMap(stale3, inputs); err == nil {
		t.Error("vanished host should error")
	}
	if d := (mapbuilder.Drift{Node: "n", Problem: "p"}); d.String() != "n: p" {
		t.Error("drift rendering")
	}
}
