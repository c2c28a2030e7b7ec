// Package navcalc implements the paper's navigation calculus (Section 4):
// the subset of serial-Horn Transaction F-logic used to encode navigation
// processes, together with an interpreter that executes navigation
// expressions against a Web fetcher and collects relational tuples.
//
// The object half (package flogic) models each fetched page as the common
// WWW data structures of Figure 3 — web_page, link, form, attrValPair and
// the action classes. The process half (package tlogic) sequences the
// primitive actions: following links, submitting forms, and extracting
// tuples from data pages.
package navcalc

import (
	"context"
	"errors"
	"fmt"

	"webbase/internal/flogic"
	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// pageBudget caps and counts the pages one navigation execution may
// fetch. It is shared (not cloned) across the execution's states:
// backtracking does not refund fetches that actually happened.
type pageBudget struct {
	fetched int
	max     int // 0 = unlimited
	// lastErr remembers the most recent soft navigation failure (a dead
	// link or rejected submission the calculus backtracked over). When the
	// whole expression ends up with no successful execution, this is the
	// best available cause — and it keeps the error taxonomy intact: a
	// navigation that kept hitting an Outage-classified fetch failure
	// stays recognizable as an outage instead of collapsing into a bare
	// "no successful execution".
	lastErr error
	// Drift evidence, recorded by the primitive actions as they fail
	// softly. sawStructural: a map-expected link, form, fill field or
	// data table was absent from a successfully fetched page — the
	// signature of a site redesign. sawInputShortfall: a branch failed
	// because the invocation supplied no binding for a variable the map
	// needs, which says nothing about the site. A failed execution is
	// classified as drift only on structural evidence with no input
	// shortfall, so under-bound handle invocations against healthy sites
	// never look like redesigns.
	sawStructural     bool
	sawInputShortfall bool
}

// noteStructural records that a successfully fetched page was missing a
// link, form, field or table the navigation map expects.
func (p *pageBudget) noteStructural() { p.sawStructural = true }

// noteInputShortfall records that a branch failed for lack of an input
// binding rather than because of anything the site served.
func (p *pageBudget) noteInputShortfall() { p.sawInputShortfall = true }

// ErrPageBudget is returned when a navigation exceeds its page budget —
// the runaway protection a webbase needs on live sites whose pagination
// may never end.
var ErrPageBudget = errors.New("navcalc: page budget exceeded")

// BrowseState is the database state of a navigation execution: the current
// page (both parsed and as F-logic objects), the fetcher used to move, and
// the tuples collected so far. It implements tlogic.State.
type BrowseState struct {
	ctx     context.Context
	fetcher web.Fetcher
	budget  *pageBudget // shared across clones
	url     string
	doc     *htmlkit.Node // parsed page; immutable once built
	store   *flogic.Store // F-logic view of the page; immutable once built
	pageID  flogic.OID

	schema    relation.Schema
	collected []relation.Tuple
}

// NewBrowseState fetches startURL and returns the initial state of a
// navigation whose extracted tuples will have the given schema. Page loads
// stop once ctx is done; maxPages is the page budget (0 = unlimited).
func NewBrowseState(ctx context.Context, f web.Fetcher, startURL string,
	schema relation.Schema, maxPages int) (*BrowseState, error) {
	st := &BrowseState{
		ctx:     ctx,
		fetcher: f,
		budget:  &pageBudget{max: maxPages},
		schema:  schema,
	}
	if err := st.load(web.NewGet(startURL)); err != nil {
		return nil, err
	}
	return st, nil
}

// load fetches req and replaces the current page. A non-success status is
// reported as an error; callers that want soft failure check first.
// Cancellation and budget exhaustion are hard errors: they must abort the
// whole execution rather than trigger backtracking into other branches
// (which would fetch even more).
func (b *BrowseState) load(req *web.Request) error {
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("navcalc: navigation cancelled: %w", err)
	}
	if b.budget.max > 0 && b.budget.fetched >= b.budget.max {
		return fmt.Errorf("%w (%d pages)", ErrPageBudget, b.budget.fetched)
	}
	b.budget.fetched++
	// One trace span per page load, created here — navigation within a
	// handle invocation is sequential, so fetch spans land in deterministic
	// order. The navigation context always rides the request (the retry,
	// breaker and outage-memo middlewares consult it for cancellation and
	// per-query state); the span is added to it when tracing is on so the
	// middleware stack can annotate how the load was served (cache /
	// network / dedup / stale).
	rctx := b.ctx
	sp := trace.Start(b.ctx, trace.KindFetch, req.URL)
	if sp != nil {
		rctx = trace.ContextWith(b.ctx, sp)
	}
	req = req.WithContext(rctx)
	resp, err := b.fetcher.Fetch(req)
	if err != nil {
		sp.EndErr(err)
		return err
	}
	sp.Add("bytes", int64(len(resp.Body)))
	if !resp.OK() {
		sp.EndErr(fmt.Errorf("status %d", resp.Status))
		// The site answered; the answer just wasn't a success. Classified
		// as SiteAnswer so upper layers don't mistake a 404 for an outage.
		return web.MarkSiteAnswer(fmt.Errorf("navcalc: %s returned status %d", req.URL, resp.Status))
	}
	sp.End()
	b.url = resp.URL
	b.doc = htmlkit.Parse(resp.Body)
	b.store, b.pageID = PageToObjects(b.doc, b.url)
	return nil
}

// Clone implements tlogic.State. The page document and object store are
// immutable after construction and therefore shared; the collected-tuple
// list is copied so that backtracking discards a failed branch's
// extractions.
func (b *BrowseState) Clone() tlogic.State {
	nb := *b
	nb.collected = append([]relation.Tuple(nil), b.collected...)
	return &nb
}

// URL returns the current page's URL.
func (b *BrowseState) URL() string { return b.url }

// Doc returns the parsed current page.
func (b *BrowseState) Doc() *htmlkit.Node { return b.doc }

// Store returns the F-logic object view of the current page.
func (b *BrowseState) Store() *flogic.Store { return b.store }

// PageID returns the OID of the current page object in Store.
func (b *BrowseState) PageID() flogic.OID { return b.pageID }

// Collected returns the tuples extracted so far.
func (b *BrowseState) Collected() []relation.Tuple { return b.collected }

// Relation materializes the collected tuples as a relation over the
// navigation's schema.
func (b *BrowseState) Relation(name string) *relation.Relation {
	r := relation.New(name, b.schema)
	for _, t := range b.collected {
		// Tuples were built against the same schema; Insert re-checks.
		if err := r.Insert(t); err != nil {
			panic(fmt.Sprintf("navcalc: collected tuple does not match schema: %v", err))
		}
	}
	return r
}

// navigate returns a successor state on the page reached by req, carrying
// the collected tuples forward.
func (b *BrowseState) navigate(req *web.Request) (*BrowseState, error) {
	nb := b.Clone().(*BrowseState)
	if err := nb.load(req); err != nil {
		b.budget.lastErr = err
		return nil, err
	}
	return nb, nil
}

// lastNavError returns the most recent navigation failure this execution
// backtracked over, or nil.
func (b *BrowseState) lastNavError() error { return b.budget.lastErr }

// DeclareWWWSignatures registers the Figure 3 class signatures on a store.
func DeclareWWWSignatures(st *flogic.Store) {
	st.DeclareClass(&flogic.Signature{Class: "web_page", Attrs: []flogic.AttrSig{
		{Name: "address", Type: "string"},
		{Name: "title", Type: "string"},
		{Name: "contents", Type: "string"},
		{Name: "actions", SetValued: true, Type: "action"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "data_page", Attrs: []flogic.AttrSig{
		{Name: "extract", Type: "string"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "action", Attrs: []flogic.AttrSig{
		{Name: "source", Type: "web_page"},
		{Name: "targets", SetValued: true, Type: "string"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "follow_link", Attrs: []flogic.AttrSig{
		{Name: "object", Type: "link"},
		{Name: "source", Type: "web_page"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "submit_form", Attrs: []flogic.AttrSig{
		{Name: "object", Type: "form"},
		{Name: "source", Type: "web_page"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "link", Attrs: []flogic.AttrSig{
		{Name: "name", Type: "string"},
		{Name: "address", Type: "string"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "form", Attrs: []flogic.AttrSig{
		{Name: "name", Type: "string"},
		{Name: "cgi", Type: "string"},
		{Name: "method", Type: "string"},
		{Name: "mandatory", SetValued: true, Type: "attrValPair"},
		{Name: "optional", SetValued: true, Type: "attrValPair"},
		{Name: "state", SetValued: true, Type: "attrValPair"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "attrValPair", Attrs: []flogic.AttrSig{
		{Name: "attrName", Type: "string"},
		{Name: "type", Type: "string"},
		{Name: "default", Type: "string"},
		{Name: "domain", SetValued: true, Type: "string"},
		{Name: "maxLength", Type: "int"},
	}})
	st.DeclareSubclass("follow_link", "action")
	st.DeclareSubclass("submit_form", "action")
	st.DeclareSubclass("data_page", "web_page")
}

// PageToObjects parses a page into its F-logic object representation per
// Figure 3: one web_page object whose set-valued actions attribute holds a
// follow_link object per hyperlink and a submit_form object per form, with
// link, form and attrValPair objects beneath them. The returned OID names
// the page object.
//
// This is the representation the map builder records (Section 7 reports
// "85 objects with over 600 attributes" for Newsday's map) and the one the
// calculus' guards query.
func PageToObjects(doc *htmlkit.Node, pageURL string) (*flogic.Store, flogic.OID) {
	st := flogic.NewStore()
	DeclareWWWSignatures(st)

	pageID := flogic.OID("page")
	st.AddClass(pageID, "web_page")
	st.SetAttr(pageID, "address", flogic.S(pageURL))
	st.SetAttr(pageID, "title", flogic.S(htmlkit.Title(doc)))

	for i, l := range htmlkit.Links(doc, pageURL) {
		linkID := flogic.OID(fmt.Sprintf("link%02d", i))
		st.AddClass(linkID, "link")
		st.SetAttr(linkID, "name", flogic.S(l.Name))
		st.SetAttr(linkID, "address", flogic.S(l.Address))

		actID := flogic.OID(fmt.Sprintf("follow%02d", i))
		st.AddClass(actID, "follow_link")
		st.SetAttr(actID, "object", flogic.R(linkID))
		st.SetAttr(actID, "source", flogic.R(pageID))
		st.AddAttr(pageID, "actions", flogic.R(actID))
	}

	for i, f := range htmlkit.Forms(doc, pageURL) {
		formID := flogic.OID(fmt.Sprintf("form%02d", i))
		st.AddClass(formID, "form")
		st.SetAttr(formID, "name", flogic.S(f.Name))
		st.SetAttr(formID, "cgi", flogic.S(f.Action))
		st.SetAttr(formID, "method", flogic.S(f.Method))
		for j, fl := range f.Fields {
			avID := flogic.OID(fmt.Sprintf("attr%02d_%02d", i, j))
			st.AddClass(avID, "attrValPair")
			st.SetAttr(avID, "attrName", flogic.S(fl.Name))
			st.SetAttr(avID, "type", flogic.S(string(fl.Widget)))
			if fl.Default != "" {
				st.SetAttr(avID, "default", flogic.S(fl.Default))
			}
			if fl.MaxLength > 0 {
				st.SetAttr(avID, "maxLength", flogic.I(int64(fl.MaxLength)))
			}
			for _, d := range fl.Domain {
				st.AddAttr(avID, "domain", flogic.S(d))
			}
			if fl.Mandatory {
				st.AddAttr(formID, "mandatory", flogic.R(avID))
			} else if fl.Widget != htmlkit.WidgetSubmit {
				st.AddAttr(formID, "optional", flogic.R(avID))
			}
		}

		actID := flogic.OID(fmt.Sprintf("submit%02d", i))
		st.AddClass(actID, "submit_form")
		st.SetAttr(actID, "object", flogic.R(formID))
		st.SetAttr(actID, "source", flogic.R(pageID))
		st.AddAttr(pageID, "actions", flogic.R(actID))
	}

	// A page carrying at least one data table is also a data_page.
	if len(doc.FindAll("table")) > 0 {
		st.AddClass(pageID, "data_page")
		st.SetAttr(pageID, "extract", flogic.S("table"))
	}
	return st, pageID
}
