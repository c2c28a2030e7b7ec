package algebra

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"webbase/internal/relation"
)

// freeCatalog returns carCatalog's data with no binding restrictions, so
// arbitrary rewritten expressions evaluate without access errors.
func freeCatalog() *MemCatalog {
	restricted := carCatalog()
	free := NewMemCatalog()
	for name, r := range restricted.rels {
		clone := relation.New(name, r.schema)
		for _, t := range r.data.Tuples() {
			if err := clone.Insert(t); err != nil {
				panic(err)
			}
		}
		free.Add(clone)
	}
	return free
}

func TestOptimizePushesSelectionBelowUnionAndJoin(t *testing.T) {
	cat := carCatalog()
	e := &Select{
		Input: &Join{
			Left:  &Union{Left: scan("ads"), Right: scan("ads2")},
			Right: scan("safety"),
		},
		Cond: eqCond("Make", "jaguar"),
	}
	opt := Optimize(e, cat)
	s := opt.String()
	// The selection must now sit on the scans inside the union, not on
	// top of the join.
	if strings.HasPrefix(s, "σ") {
		t.Errorf("selection not pushed: %s", s)
	}
	if strings.Count(s, "σ[Make = jaguar]") < 2 {
		t.Errorf("selection should reach both union branches: %s", s)
	}
	// Equivalence on the restricted catalog (the constant still reaches
	// the scans, so populate succeeds).
	want, err := Eval(context.Background(), e, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(context.Background(), opt, carCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameContents(t, want, got) {
		t.Errorf("optimize changed the answer:\n%s\nvs\n%s", want, got)
	}
}

func TestOptimizeSelectionStaysWhenSpanningJoin(t *testing.T) {
	cat := carCatalog()
	// Price < BBPrice spans both join sides: it must remain above.
	e := &Select{
		Input: &Select{
			Input: &Join{Left: scan("ads"), Right: scan("bluebook")},
			Cond:  Condition{Attr: "Price", Op: LT, Attr2: "BBPrice"},
		},
		Cond: eqCond("Make", "jaguar"),
	}
	opt := Optimize(e, cat)
	s := opt.String()
	if !strings.Contains(s, "σ[Price < BBPrice]") {
		t.Errorf("cross-side condition lost: %s", s)
	}
	// The equality must have moved below it (ordering rule) and into the
	// join branches.
	if strings.Index(s, "σ[Price < BBPrice]") > strings.Index(s, "σ[Make = jaguar]") {
		t.Errorf("eq selection should be innermost: %s", s)
	}
}

func TestOptimizeMergesProjections(t *testing.T) {
	cat := carCatalog()
	e := &Project{
		Input: &Project{Input: scan("ads"), Attrs: []string{"Make", "Model", "Price"}},
		Attrs: []string{"Make", "Price"},
	}
	opt := Optimize(e, cat)
	if strings.Count(opt.String(), "π") != 1 {
		t.Errorf("projections not merged: %s", opt)
	}
}

func TestOptimizePushesThroughProjectAndRename(t *testing.T) {
	cat := carCatalog()
	e := &Select{
		Input: &Project{Input: scan("ads"), Attrs: []string{"Make", "Price"}},
		Cond:  eqCond("Make", "ford"),
	}
	opt := Optimize(e, cat)
	if !strings.HasPrefix(opt.String(), "π") {
		t.Errorf("selection should slide below projection: %s", opt)
	}
	// σ on a renamed attribute stays above ρ (we do not rewrite names).
	e2 := &Select{
		Input: &Rename{Input: scan("safety"), Mapping: map[string]string{"Safety": "Rating"}},
		Cond:  eqCond("Rating", "good"),
	}
	opt2 := Optimize(e2, cat)
	if !strings.HasPrefix(opt2.String(), "σ") {
		t.Errorf("selection over rename should stay put: %s", opt2)
	}
}

func TestOptimizeDiffPushesLeft(t *testing.T) {
	cat := carCatalog()
	e := &Select{
		Input: &Diff{Left: scan("ads"), Right: scan("ads2")},
		Cond:  eqCond("Make", "ford"),
	}
	opt := Optimize(e, cat)
	s := opt.String()
	if !strings.HasPrefix(s, "(σ") {
		t.Errorf("selection should push into the left diff branch: %s", s)
	}
}

// randomExpr builds a random expression over the free catalog's relations.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		names := []string{"ads", "ads2", "bluebook", "safety"}
		return scan(names[r.Intn(len(names))])
	}
	switch r.Intn(5) {
	case 0:
		in := randomExpr(r, depth-1)
		makes := []string{"ford", "jaguar", "honda"}
		return &Select{Input: in, Cond: Condition{
			Attr: "Make", Op: EQ, Val: relation.String(makes[r.Intn(len(makes))])}}
	case 1:
		in := randomExpr(r, depth-1)
		return &Select{Input: in, Cond: Condition{
			Attr: "Make", Op: NE, Val: relation.String("honda")}}
	case 2:
		// Union requires equal schemas: ads ∪ ads2 under random selects.
		l := &Select{Input: scan("ads"), Cond: Condition{Attr: "Year", Op: GE, Val: relation.Int(1990 + int64(r.Intn(8)))}}
		var rexpr Expr = scan("ads2")
		if r.Intn(2) == 0 {
			rexpr = &Select{Input: rexpr, Cond: Condition{Attr: "Price", Op: LT, Val: relation.Int(int64(5000 + r.Intn(20000)))}}
		}
		return &Union{Left: l, Right: rexpr}
	case 3:
		return &Join{Left: randomExpr(r, depth-1), Right: scan("safety")}
	default:
		in := randomExpr(r, depth-1)
		return in
	}
}

// TestOptimizeEquivalenceProperty checks, over many random expressions,
// that Optimize preserves the computed relation exactly (on a catalog with
// no binding restrictions, so every shape evaluates).
func TestOptimizeEquivalenceProperty(t *testing.T) {
	cat := freeCatalog()
	r := rand.New(rand.NewSource(20260706))
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(r, 3)
		if _, err := e.Schema(cat); err != nil {
			continue // random composition may be ill-typed; skip
		}
		want, err := Eval(context.Background(), e, cat, nil)
		if err != nil {
			t.Fatalf("trial %d: eval original: %v\n%s", trial, err, e)
		}
		opt := Optimize(e, cat)
		got, err := Eval(context.Background(), opt, cat, nil)
		if err != nil {
			t.Fatalf("trial %d: eval optimized: %v\n%s", trial, err, opt)
		}
		if !sameContents(t, want, got) {
			t.Fatalf("trial %d: not equivalent\noriginal:  %s\noptimized: %s\nwant:\n%s\ngot:\n%s",
				trial, e, opt, want, got)
		}
	}
}

// sameContents compares two relations as bags up to column order.
func sameContents(t *testing.T, a, b *relation.Relation) bool {
	t.Helper()
	if !a.Schema().EqualUnordered(b.Schema()) {
		return false
	}
	ad, err1 := a.Distinct().Diff(b.Distinct())
	bd, err2 := b.Distinct().Diff(a.Distinct())
	if err1 != nil || err2 != nil {
		return false
	}
	return ad.Len() == 0 && bd.Len() == 0 && a.Distinct().Len() == b.Distinct().Len()
}
