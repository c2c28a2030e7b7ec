package mapbuilder_test

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/web"
)

// versionedSite builds a small dealer site whose entry link text and form
// shape can change between "releases" — the maintenance scenario of
// Section 7 ("since we first built navigation maps for car-related sites,
// we have noticed quite a few changes to these sites... we only had to
// navigate through the modified pages").
func versionedSite(linkText string, extraField bool) *web.Server {
	host := "dealer.example"
	m := web.NewMux(host)
	m.Handle("/", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return web.HTML(req.URL,
			`<html><body><a href="/search">`+linkText+`</a></body></html>`), nil
	}))
	m.Handle("/search", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		extra := ""
		if extraField {
			extra = `Zip: <input type="text" name="zip"><br>`
		}
		return web.HTML(req.URL, `<html><body>
<form name="q" action="/cgi/q" method="get">
Make: <input type="text" name="make"><br>`+extra+`
<input type="submit" value="Go"></form></body></html>`), nil
	}))
	m.Handle("/cgi/q", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		if mk == "" {
			return web.HTML(req.URL, "<html><body>make required</body></html>"), nil
		}
		return web.HTML(req.URL, `<html><body><table>
<tr><th>Make</th><th>Price</th></tr>
<tr><td>`+mk+`</td><td>$9,999</td></tr>
</table></body></html>`), nil
	}))
	s := web.NewServer()
	s.Register(m)
	return s
}

func dealerSession() *mapbuilder.Session {
	return &mapbuilder.Session{
		Relation: "dealer",
		StartURL: "http://dealer.example/",
		Schema:   relation.NewSchema("Make", "Price"),
		Events: []mapbuilder.Event{
			{Kind: mapbuilder.EvFollow, LinkName: "Used Cars"},
			{Kind: mapbuilder.EvSubmit, FormName: "q",
				Values: map[string]string{"make": "ford"},
				VarOf:  map[string]string{"make": "Make"}},
			{Kind: mapbuilder.EvMarkData, Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
				{Header: "Make", Attr: "Make"},
				{Header: "Price", Attr: "Price", Money: true},
			}}},
		},
	}
}

// TestSiteEvolutionLifecycle walks the full maintenance story: map a site,
// the site changes its entry link, the periodic check detects the drift,
// the designer re-browses the one changed page, and the refreshed map
// works again — while a benign change (an extra optional form field) is
// not flagged at all.
func TestSiteEvolutionLifecycle(t *testing.T) {
	v1 := versionedSite("Used Cars", false)
	b := &mapbuilder.Builder{Fetcher: v1}
	m, _, err := b.Build(dealerSession())
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]string{"Make": "ford"}

	// v1: map is clean and the derived expression collects data.
	drifts, err := b.CheckMap(m, inputs)
	if err != nil || len(drifts) != 0 {
		t.Fatalf("v1 drift: %v %v", drifts, err)
	}
	expr, err := navmap.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := expr.Execute(context.Background(), v1, inputs)
	if err != nil || rel.Len() != 1 {
		t.Fatalf("v1 execute: %v %v", rel, err)
	}

	// v2: the site renames the entry link. Detection, then failure of the
	// stale expression.
	v2 := versionedSite("Pre-Owned Vehicles", false)
	b2 := &mapbuilder.Builder{Fetcher: v2}
	drifts, err = b2.CheckMap(m, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || !strings.Contains(drifts[0].Problem, "Used Cars") {
		t.Fatalf("v2 drift = %v", drifts)
	}
	if _, _, err := expr.Execute(context.Background(), v2, inputs); err == nil {
		t.Fatal("stale expression should fail against v2")
	}

	// The designer re-records the session with the new link text; the
	// refreshed map is clean and works.
	s2 := dealerSession()
	s2.Events[0].LinkName = "Pre-Owned Vehicles"
	m2, _, err := b2.Build(s2)
	if err != nil {
		t.Fatal(err)
	}
	if drifts, _ := b2.CheckMap(m2, inputs); len(drifts) != 0 {
		t.Fatalf("refreshed map drifts: %v", drifts)
	}
	expr2, err := navmap.Translate(m2)
	if err != nil {
		t.Fatal(err)
	}
	if rel, _, err := expr2.Execute(context.Background(), v2, inputs); err != nil || rel.Len() != 1 {
		t.Fatalf("refreshed execute: %v %v", rel, err)
	}

	// v3: a benign change — an extra optional form field — needs no map
	// update ("others can be applied automatically"): no drift, and the
	// old expression still runs.
	v3 := versionedSite("Pre-Owned Vehicles", true)
	b3 := &mapbuilder.Builder{Fetcher: v3}
	if drifts, _ := b3.CheckMap(m2, inputs); len(drifts) != 0 {
		t.Fatalf("benign change flagged: %v", drifts)
	}
	if rel, _, err := expr2.Execute(context.Background(), v3, inputs); err != nil || rel.Len() != 1 {
		t.Fatalf("execute across benign change: %v %v", rel, err)
	}
}
