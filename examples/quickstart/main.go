// Quickstart: assemble a webbase over the simulated Web and run one
// universal-relation query — no joins in sight, the system navigates the
// sites for you.
package main

import (
	"context"
	"fmt"
	"log"

	"webbase"
)

func main() {
	// The built-in simulated Web: twelve deterministic car-shopping sites.
	world := webbase.NewSimulatedWorld()

	// Assemble the three-layer webbase over it.
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}

	// The end-user interface is the structured universal relation: name
	// the attributes you want and the conditions you have.
	res, stats, err := sys.QueryString(context.Background(),
		"SELECT Make, Model, Year, Price, Contact WHERE Make = 'ford' AND Model = 'escort'")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(res.Relation.SortBy("Year", "Price"))
	fmt.Printf("\n%d ford escorts found — %s\n", res.Relation.Len(), stats)
}
