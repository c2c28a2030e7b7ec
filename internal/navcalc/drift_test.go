package navcalc

import (
	"context"
	"errors"
	"testing"

	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// These tests pin the drift taxonomy at the navcalc boundary: a failed
// navigation is classified as site drift only when the page evidence is
// structural (a mapped link, form, field or data table is gone from pages
// the site happily served) and never when the shortfall was on our side
// (an input the query did not bind). Getting this split wrong either
// quarantines healthy sites on under-bound queries or hides real
// redesigns behind generic navigation failures.

// redesignedNewsday wraps the simulated world with an already-active
// Redesign of the newsday host.
func redesignedNewsday(rewrites ...web.Rewrite) web.Fetcher {
	rd := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: rewrites},
	}
	rd.Activate()
	return rd
}

// TestRenamedLinkClassifiesAsDrift: the mapped home-page link vanished
// from a live, answering site — structural evidence, so the failure
// carries ErrSiteDrift (and still matches ErrNavigationFailed).
func TestRenamedLinkClassifiesAsDrift(t *testing.T) {
	f := redesignedNewsday(web.Rewrite{Old: ">Automobiles<", New: ">Cars and Trucks<"})
	expr := newsdayExpression()
	_, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
	if !web.IsDrift(err) {
		t.Fatalf("renamed link: IsDrift=false: %v", err)
	}
	if !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("drift error no longer matches ErrNavigationFailed: %v", err)
	}
	if got := web.FailingHost(err); got != sites.NewsdayHost {
		t.Errorf("drift attributed to host %q, want %s", got, sites.NewsdayHost)
	}
}

// TestRenamedFormClassifiesAsDrift: the mapped form name is gone while
// the page still answers.
func TestRenamedFormClassifiesAsDrift(t *testing.T) {
	f := redesignedNewsday(web.Rewrite{Old: `"f1"`, New: `"searchform"`})
	expr := newsdayExpression()
	_, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
	if !web.IsDrift(err) {
		t.Fatalf("renamed form: IsDrift=false: %v", err)
	}
}

// TestRenamedTableHeaderClassifiesAsDrift: navigation still works but the
// data page's extraction table lost a mapped header — the empty
// extraction is structural drift, not a silent empty answer.
func TestRenamedTableHeaderClassifiesAsDrift(t *testing.T) {
	f := redesignedNewsday(web.Rewrite{Old: ">Price<", New: ">Asking<"})
	expr := newsdayExpression()
	_, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
	if !web.IsDrift(err) {
		t.Fatalf("renamed table header: IsDrift=false: %v", err)
	}
}

// TestMissingInputIsNotDrift: kellys without its mandatory Condition
// fails navigation because WE could not fill the form — an input
// shortfall, never drift (a false positive here would quarantine a
// perfectly healthy site).
func TestMissingInputIsNotDrift(t *testing.T) {
	w := sites.BuildWorld()
	kellys := &Expression{
		Name:     "kellys",
		StartURL: "http://" + sites.KellysHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Condition", "BBPrice"),
		Program:  tlogic.NewProgram(),
		Goal: tlogic.Seq(
			Follow("Price a Used Car"),
			Submit("pricer", Fill("make", "Make"), Fill("model", "Model"),
				Fill("year", "Year"), Fill("condition", "Condition")),
			Extract(ExtractSpec{Columns: []Column{
				{Header: "Make", Attr: "Make"},
				{Header: "BBPrice", Attr: "BBPrice", Money: true},
			}}),
		),
	}
	_, _, err := kellys.Execute(context.Background(), w.Server, map[string]string{"Make": "jaguar", "Model": "xj6"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Fatalf("missing mandatory input should fail navigation: %v", err)
	}
	if web.IsDrift(err) {
		t.Fatal("missing mandatory input misclassified as site drift")
	}
}

// TestUnboundFollowVarIsNotDrift: an unbound variable link is our
// shortfall, not the site's.
func TestUnboundFollowVarIsNotDrift(t *testing.T) {
	w := sites.BuildWorld()
	prog := tlogic.NewProgram()
	collect := CollectLoop(prog, "collect", ExtractSpec{Columns: []Column{
		{Header: "Make", Attr: "Make"},
		{Header: "Model", Attr: "Model"},
		{Header: "Year", Attr: "Year"},
		{Header: "Price", Attr: "Price", Money: true},
	}}, "More")
	expr := &Expression{
		Name:     "yahooCars",
		StartURL: "http://" + sites.YahooCarsHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Price"),
		Program:  prog,
		Goal:     tlogic.Seq(FollowVar("Make"), FollowVar("Model"), collect),
	}
	_, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Fatalf("unbound Model should fail navigation: %v", err)
	}
	if web.IsDrift(err) {
		t.Fatal("unbound FollowVar misclassified as site drift")
	}
}

// TestBoundFollowVarWithNoMatchingLinkIsNotDrift: the variable is bound
// but the site lists no such directory entry — absence of data, neither
// structural drift nor an input shortfall.
func TestBoundFollowVarWithNoMatchingLinkIsNotDrift(t *testing.T) {
	w := sites.BuildWorld()
	prog := tlogic.NewProgram()
	collect := CollectLoop(prog, "collect", ExtractSpec{Columns: []Column{
		{Header: "Make", Attr: "Make"},
		{Header: "Model", Attr: "Model"},
		{Header: "Year", Attr: "Year"},
		{Header: "Price", Attr: "Price", Money: true},
	}}, "More")
	expr := &Expression{
		Name:     "yahooCars",
		StartURL: "http://" + sites.YahooCarsHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Price"),
		Program:  prog,
		Goal:     tlogic.Seq(FollowVar("Make"), FollowVar("Model"), collect),
	}
	_, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "zeppelin", "Model": "led"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Fatalf("unknown make should fail navigation: %v", err)
	}
	if web.IsDrift(err) {
		t.Fatal("absent directory entry misclassified as site drift")
	}
}

// TestOutageIsNotDrift: a host that refuses to answer is an outage; the
// drift classification requires the site to have answered.
func TestOutageIsNotDrift(t *testing.T) {
	f := &web.Flaky{Inner: sites.BuildWorld().Server, FailEvery: 1}
	expr := newsdayExpression()
	_, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
	if err == nil {
		t.Fatal("fully failing fetcher succeeded")
	}
	if web.IsDrift(err) {
		t.Fatalf("outage misclassified as drift: %v", err)
	}
}
