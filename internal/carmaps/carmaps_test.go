package carmaps

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

func TestAllMapsValidateAndTranslate(t *testing.T) {
	for name, m := range AllMaps() {
		if err := m.Validate(); err != nil {
			t.Errorf("map %s invalid: %v", name, err)
			continue
		}
		expr, err := navmap.Translate(m)
		if err != nil {
			t.Errorf("map %s translation: %v", name, err)
			continue
		}
		if expr.Name != name {
			t.Errorf("expression name %q for map %q", expr.Name, name)
		}
	}
	if len(AllMaps()) != 13 {
		t.Errorf("expected 13 maps (12 sites + newsdayCarFeatures), got %d", len(AllMaps()))
	}
}

// TestDerivedExpressionsRunAgainstWorld executes the automatically derived
// expression for each map against the simulated Web with the ford/escort
// query of Section 7 and checks the result against the dataset oracle.
func TestDerivedExpressionsRunAgainstWorld(t *testing.T) {
	w := sites.BuildWorld()
	inputs := map[string]string{"Make": "ford", "Model": "escort"}

	cases := []struct {
		mapName string
		host    string // dataset host for the oracle; "" = no ad oracle
		want    func() int
	}{
		{"newsday", sites.NewsdayHost, nil},
		{"nyTimes", sites.NYTimesHost, nil},
		{"carPoint", sites.CarPointHost, nil},
		{"autoWeb", sites.AutoWebHost, nil},
		{"wwWheels", sites.WWWheelsHost, nil},
		{"yahooCars", sites.YahooCarsHost, nil},
	}
	maps := AllMaps()
	for _, c := range cases {
		t.Run(c.mapName, func(t *testing.T) {
			expr, err := navmap.Translate(maps[c.mapName])
			if err != nil {
				t.Fatal(err)
			}
			rel, info, err := expr.Execute(context.Background(), w.Server, inputs)
			if err != nil {
				t.Fatal(err)
			}
			want := len(w.Datasets[c.host].ByMakeModel("ford", "escort"))
			if rel.Len() != want {
				t.Errorf("collected %d tuples, dataset has %d", rel.Len(), want)
			}
			if info.PathLength < 2 {
				t.Errorf("suspiciously short path: %d", info.PathLength)
			}
		})
	}
}

func TestNewYorkDailyFullMake(t *testing.T) {
	// NewYorkDaily's form only takes make; the oracle is all fords.
	w := sites.BuildWorld()
	expr, err := navmap.Translate(AllMaps()["newYorkDaily"])
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford"})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.NewYorkDailyHost].ByMake("ford"))
	if rel.Len() != want {
		t.Errorf("collected %d, want %d", rel.Len(), want)
	}
}

func TestAutoConnectNeedsCondition(t *testing.T) {
	w := sites.BuildWorld()
	expr, err := navmap.Translate(AllMaps()["autoConnect"])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford"}); err == nil {
		t.Error("autoConnect without Condition should fail (mandatory radio)")
	}
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Condition": "good"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := 0
	for _, a := range w.Datasets[sites.AutoConnectHost].ByMake("ford") {
		if a.Condition == "good" {
			oracle++
		}
	}
	if rel.Len() != oracle {
		t.Errorf("collected %d, want %d", rel.Len(), oracle)
	}
}

func TestReferenceSiteExpressions(t *testing.T) {
	w := sites.BuildWorld()
	maps := AllMaps()

	t.Run("kellys", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["kellys"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{
			"Make": "jaguar", "Model": "xj6", "Year": "1994", "Condition": "good"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
		bb, _ := rel.Get(rel.Tuples()[0], "BBPrice")
		if int(bb.IntVal()) != sites.BlueBook("jaguar", "xj6", 1994, "good") {
			t.Errorf("bbprice = %v", bb)
		}
	})

	t.Run("carAndDriver", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["carAndDriver"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "jaguar"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != len(sites.Catalog["jaguar"]) {
			t.Errorf("rows = %d", rel.Len())
		}
	})

	t.Run("carReviews", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["carReviews"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "honda", "Model": "civic"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
	})

	t.Run("carFinance", func(t *testing.T) {
		expr, _ := navmap.Translate(maps["carFinance"])
		rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"ZipCode": "11201", "Duration": "36"})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
	})

	t.Run("newsdayCarFeatures", func(t *testing.T) {
		// First get a Url via the newsday relation, then enter directly.
		newsday, _ := navmap.Translate(maps["newsday"])
		ads, _, err := newsday.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
		if err != nil {
			t.Fatal(err)
		}
		u, _ := ads.Get(ads.Tuples()[0], "Url")
		feats, _ := navmap.Translate(maps["newsdayCarFeatures"])
		rel, _, err := feats.Execute(context.Background(), w.Server, map[string]string{"Url": u.Str()})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("rows = %d", rel.Len())
		}
		gotURL, _ := rel.Get(rel.Tuples()[0], "Url")
		if gotURL.Str() != u.Str() {
			t.Errorf("Url echo = %v, want %v", gotURL, u)
		}
		f, _ := rel.Get(rel.Tuples()[0], "Features")
		if f.Str() == "" {
			t.Error("empty features")
		}
		// Without the Url input the expression must fail.
		if _, _, err := feats.Execute(context.Background(), w.Server, nil); err == nil {
			t.Error("missing Url input should fail")
		}
	})
}

// TestTextualSyntaxCoversAllMaps formats every derived expression in the
// textual navigation-expression syntax, re-parses it, and checks the
// re-parsed expression collects the same tuples — the syntax covers the
// whole operational surface.
func TestTextualSyntaxCoversAllMaps(t *testing.T) {
	w := sites.BuildWorld()
	inputs := map[string]map[string]string{
		"newsday":      {"Make": "ford", "Model": "escort"},
		"nyTimes":      {"Make": "ford", "Model": "escort"},
		"newYorkDaily": {"Make": "ford"},
		"carPoint":     {"Make": "ford", "Model": "escort"},
		"autoWeb":      {"Make": "ford", "Model": "escort"},
		"wwWheels":     {"Make": "ford", "Model": "escort"},
		"autoConnect":  {"Make": "ford", "Condition": "good"},
		"yahooCars":    {"Make": "ford", "Model": "escort"},
		"kellys":       {"Make": "jaguar", "Model": "xj6", "Condition": "good"},
		"carAndDriver": {"Make": "jaguar"},
		"carReviews":   {"Make": "honda", "Model": "civic"},
		"carFinance":   {"ZipCode": "11201"},
	}
	for name, m := range AllMaps() {
		in, ok := inputs[name]
		if !ok {
			continue // newsdayCarFeatures needs a live Url; syntax covered elsewhere
		}
		t.Run(name, func(t *testing.T) {
			expr, err := navmap.Translate(m)
			if err != nil {
				t.Fatal(err)
			}
			text := navcalc.FormatExpression(expr)
			reparsed, err := navcalc.ParseExpression(text)
			if err != nil {
				t.Fatalf("re-parse: %v\n%s", err, text)
			}
			a, _, err := expr.Execute(context.Background(), w.Server, in)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := reparsed.Execute(context.Background(), w.Server, in)
			if err != nil {
				t.Fatalf("re-parsed execute: %v\n%s", err, text)
			}
			if a.Len() != b.Len() {
				t.Errorf("tuples %d vs %d\n%s", a.Len(), b.Len(), text)
			}
		})
	}
}

// TestFigure2Rendering checks that the Newsday map prints the structures
// Figure 2 shows.
func TestFigure2Rendering(t *testing.T) {
	m := Newsday()
	s := m.String()
	for _, want := range []string{"newsdayPg", "UsedCarPg", "carPg", "carData",
		"link(Automobiles)", "form f1(make)", "form f2(model, featrs)", "link(More)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 2 rendering missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(m.DOT(), "carData") {
		t.Error("DOT output missing nodes")
	}
}
