package main

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"webbase/internal/relation"
	"webbase/internal/ur"
	"webbase/internal/web"
)

func takeN(s *sequence, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.take()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(buildPool(7), buildPool(7)) {
		t.Fatal("buildPool(7) differs between calls")
	}
	if reflect.DeepEqual(buildPool(7), buildPool(8)) {
		t.Fatal("seeds 7 and 8 gave the same pool")
	}
	const n = 3 * 56 // three cycles
	for c := 0; c < callers; c++ {
		a, b := takeN(newSequence(7, c), n), takeN(newSequence(7, c), n)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("caller %d: same seed gave different sequences", c)
		}
		if reflect.DeepEqual(a, takeN(newSequence(8, c), n)) {
			t.Fatalf("caller %d: seeds 7 and 8 gave the same sequence", c)
		}
	}
	if reflect.DeepEqual(takeN(newSequence(7, 0), n), takeN(newSequence(7, 1), n)) {
		t.Fatal("the two callers walk the same sequence")
	}
}

func TestCyclesVisitThePoolOnceBalanced(t *testing.T) {
	const nm = 8 // makes; pool index = shape*nm + make
	poolLen := len(buildPool(3))
	seq := takeN(newSequence(3, 0), 3*poolLen)
	for c := 0; c < 3; c++ {
		cycle := seq[c*poolLen : (c+1)*poolLen]
		seen := map[int]bool{}
		for i, q := range cycle {
			seen[q] = true
			for j := max(0, i-6); j < i; j++ {
				if cycle[j]/nm == q/nm {
					t.Fatalf("cycle %d: shape %d twice within seven queries", c, q/nm)
				}
			}
			for j := max(0, i-7); j < i; j++ {
				if cycle[j]%nm == q%nm {
					t.Fatalf("cycle %d: make %d twice within eight queries", c, q%nm)
				}
			}
		}
		if len(seen) != poolLen {
			t.Fatalf("cycle %d visits %d of %d pool queries", c, len(seen), poolLen)
		}
	}
}

func TestEveryPoolQueryHasAPlan(t *testing.T) {
	schema, err := ur.UsedCarUR()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, pq := range buildPool(seed) {
			q, err := ur.ParseQuery(schema, pq)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, pq, err)
			}
			plan, err := schema.Plan(q)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, pq, err)
			}
			if len(plan.Objects) == 0 {
				t.Fatalf("seed %d: %q has an empty plan", seed, pq)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{35, 20, 50, 15, 40}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if xs[0] != 35 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 8}, [3]float64{2, 7, 8}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "web.load", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "web.load", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "web.load", Start: 20, End: 25}, // inside span 2
		{ID: 5, Parent: 1, Name: "web.load", Start: 90, End: 120},
		{ID: 6, Parent: 2, Name: "web.source", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of its 100.
	if got := self[1]; got != 40 {
		t.Errorf("handler self time = %d, want 40", got)
	}
	if got := self[2]; got != 10 {
		t.Errorf("load self time = %d, want 10", got)
	}
	if _, ok := self[3]; ok {
		t.Error("a span without children has a self time entry")
	}
}

func TestReplayFailsClosed(t *testing.T) {
	site := web.NewMux("a.example")
	site.Handle("/", func(req *web.Request) (*web.Response, error) { return web.HTML(req.URL, "<p>a</p>"), nil })
	sim := web.NewServer()
	sim.Register(site)
	rec := newRecorder(sim)
	if _, err := rec.Fetch(web.NewGet("http://a.example/")); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Fetch(web.NewGet("http://a.example/missing")); err != nil {
		t.Fatal(err)
	}
	rp := newReplay(rec.pages)

	resp, err := rp.Fetch(web.NewGet("http://a.example/missing"))
	if err != nil || resp.Status != 404 {
		t.Fatalf("recorded 404 replayed as %v, %v", resp, err)
	}
	if _, err := rp.Fetch(web.NewGet("http://a.example/never")); !errors.Is(err, errReplayMiss) {
		t.Fatalf("unrecorded request: err = %v, want errReplayMiss", err)
	}
	if rp.misses.Load() != 1 || rp.served.Load() != 1 {
		t.Fatalf("misses %d served %d, want 1 and 1", rp.misses.Load(), rp.served.Load())
	}
}

func TestAnswerComparison(t *testing.T) {
	tup := func(vals ...relation.Value) relation.Tuple { return relation.Tuple(vals) }
	a := tup(relation.String("ford"), relation.Int(1994))
	b := tup(relation.String("ford"), relation.Int(1995))
	rel := relation.New("r", relation.Schema{"Make", "Year"})
	for _, x := range []relation.Tuple{a, b} {
		if err := rel.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	ref := referenceAnswer(&ur.Result{Relation: rel, Skipped: []string{"Interest"}})

	var same collector // other order, integral floats: what the wire may deliver
	same.add(ur.ObjectDelivery{Tuples: []relation.Tuple{tup(relation.String("ford"), relation.Float(1995))}})
	same.add(ur.ObjectDelivery{Tuples: []relation.Tuple{a}})
	same.add(ur.ObjectDelivery{Skipped: "Interest"})
	if !same.answer().equal(ref) {
		t.Error("a reordered stream of the same answer compares unequal")
	}

	var short collector
	short.add(ur.ObjectDelivery{Tuples: []relation.Tuple{a}})
	short.add(ur.ObjectDelivery{Skipped: "Interest"})
	if short.answer().equal(ref) {
		t.Error("a stream missing a tuple compares equal")
	}

	var degraded collector
	degraded.add(ur.ObjectDelivery{Tuples: []relation.Tuple{a, b}})
	degraded.add(ur.ObjectDelivery{Failure: &ur.SiteFailure{Object: []string{"Dealers"}, Host: "x.example"}})
	degraded.add(ur.ObjectDelivery{Skipped: "Interest"})
	if degraded.answer().equal(ref) {
		t.Error("a stream with an unavailable object compares equal")
	}
}
