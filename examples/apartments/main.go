// Apartments runs the webbase over a second application domain —
// apartment hunting — showing that the layered architecture is not tied
// to the paper's used-car scenario: the same VPS/logical/UR machinery,
// assembled from a different domain description, answers a different
// market's questions.
package main

import (
	"context"
	"fmt"
	"log"

	"webbase"
)

func main() {
	ctx := context.Background()
	world := webbase.NewApartmentWorld()
	sys, err := webbase.NewApartments(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("The apartment hunter's universal relation:")
	for _, a := range sys.UR.Hierarchy.AllAttrs() {
		fmt.Println("  " + a)
	}

	query := "SELECT Neighborhood, Bedrooms, Rent, MedianRent, CrimeRate, Contact " +
		"WHERE Borough = 'brooklyn' AND Bedrooms = 2 " +
		"AND Rent < MedianRent AND CrimeRate <= 5 ORDER BY Rent LIMIT 10"
	fmt.Println("\nQuery:", query)

	res, stats, err := sys.QueryString(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBelow-median two-bedrooms in safe Brooklyn neighborhoods:")
	fmt.Print(res.Relation)
	fmt.Printf("\n%d answers; %s\n", res.Relation.Len(), stats)

	// A fee-aware broker query: the planner routes it to the Brokered
	// maximal object because only brokers report fees.
	res2, _, err := sys.QueryString(ctx,
		"SELECT Neighborhood, Rent, Fee WHERE Borough = 'manhattan' AND Bedrooms = 1 ORDER BY Fee LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nLowest broker fees for Manhattan one-bedrooms:")
	fmt.Print(res2.Relation)
}
