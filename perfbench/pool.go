package main

import (
	"fmt"
	"math/rand"

	"webbase/internal/sites"
)

// makeParams are the seed's choices for one make.
type makeParams struct {
	pointModel, sortModel string // always two different models
	year, headlineYear    int
	safety, condition     string
	sortKey               string
	limit                 int
}

func newMakeParams(r *rand.Rand, mk string) makeParams {
	models := sites.Catalog[mk]
	perm := r.Perm(len(models))
	return makeParams{
		pointModel:   models[perm[0]],
		sortModel:    models[perm[1]],
		year:         1988 + r.Intn(6),
		headlineYear: 1991 + r.Intn(4),
		safety:       pick(r, []string{"good", "average", "poor"}),
		condition:    pick(r, []string{"excellent", "fair"}),
		sortKey:      pick(r, []string{"Price", "Year"}),
		limit:        3 + r.Intn(8),
	}
}

// shapes are the query forms of the pool, one per path through the
// layers: a point lookup, a make-wide scan, the Safety (reliability)
// join, the blue-book dependent join, the paper's Section 1 query, and
// the buffered ORDER BY and LIMIT forms. Every shape binds Make: an
// unbound query skips every maximal object and exercises nothing.
//
// No two queries of one make choose the same site inputs by chance: the
// point and ORDER BY queries name different models, and the blue-book
// join asks for another condition than the headline query's 'good'. So
// which pages one query of a make finds cached from another is the same
// for every seed.
var shapes = []func(mk string, p makeParams) string{
	// point
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make = '%s' AND Model = '%s'", mk, p.pointModel)
	},
	// make-wide
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price, Contact WHERE Make = '%s' AND Year >= %d", mk, p.year)
	},
	// safety-join
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price, Safety WHERE Make = '%s' AND Safety = '%s'", mk, p.safety)
	},
	// bluebook-join
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make = '%s' AND Condition = '%s' AND Price < BBPrice", mk, p.condition)
	},
	// headline
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make = '%s' AND Year >= %d AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice", mk, p.headlineYear)
	},
	// order-by
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make = '%s' AND Model = '%s' ORDER BY %s DESC", mk, p.sortModel, p.sortKey)
	},
	// limit
	func(mk string, p makeParams) string {
		return fmt.Sprintf("SELECT Make, Model, Year, Price, Contact WHERE Make = '%s' LIMIT %d", mk, p.limit)
	},
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

// buildPool returns the query pool for seed: every shape once per make,
// with the seed choosing each query's free parameters. Every shape and
// every make is in every pool, so the mix of query costs barely moves
// between seeds while the queries themselves do. Query s*len(makes)+m
// is shape s on the m-th make in sorted order.
func buildPool(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	makes := sites.Makes()
	params := make([]makeParams, len(makes))
	for i, mk := range makes {
		params[i] = newMakeParams(r, mk)
	}
	var pool []string
	for _, gen := range shapes {
		for i, mk := range makes {
			pool = append(pool, gen(mk, params[i]))
		}
	}
	return pool
}

// sequence is the order in which one closed-loop caller walks the pool:
// cycle after cycle through the whole pool, each cycle drawn afresh from
// the seed. The k-th query of a cycle is shape k mod 7 on make k mod 8,
// under a shuffle of the shapes and a shuffle of the makes; as 7 and 8
// are coprime, a cycle visits every query once, and any stretch of the
// sequence holds each shape and each make in nearly its pool share. That
// matters because queries differ sixfold in the pages they load (a
// blue-book join on a common make against a point query on a rare one):
// a window that happened to catch more heavy queries would move every
// figure. Each caller draws its own cycles, so what the two callers run
// side by side is left to chance rather than locked into a pattern.
type sequence struct {
	seed   int64
	cycles int
	cycle  []int
	next   int
}

func newSequence(seed int64, caller int) *sequence {
	return &sequence{seed: seed*1_000_003 + int64(caller)*7_919}
}

// take returns the pool index of the caller's next query.
func (s *sequence) take() int {
	if s.next == len(s.cycle) {
		r := rand.New(rand.NewSource(s.seed + int64(s.cycles)*104_729))
		s.cycles++
		ns, nm := len(shapes), len(sites.Catalog)
		shapeOrder, makeOrder := r.Perm(ns), r.Perm(nm)
		s.cycle = s.cycle[:0]
		for k := 0; k < ns*nm; k++ {
			s.cycle = append(s.cycle, shapeOrder[k%ns]*nm+makeOrder[k%nm])
		}
		s.next = 0
	}
	q := s.cycle[s.next]
	s.next++
	return q
}
