package webbase_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"webbase"
	"webbase/internal/server"
)

// Example runs the paper's headline query end to end against the built-in
// simulated Web: used jaguars, 1993 or later, good safety rating, selling
// below blue book. The simulated datasets are seeded, so the counts are
// reproducible.
func Example() {
	world := webbase.NewSimulatedWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := sys.QueryString(context.Background(),
		"SELECT Make, Model, Year, Price, BBPrice "+
			"WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' "+
			"AND Condition = 'good' AND Price < BBPrice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d bargain jaguars found\n", res.Relation.Len())
	fmt.Printf("planned over %d maximal objects\n", len(res.Plan.Objects))
	// Output:
	// 75 bargain jaguars found
	// planned over 2 maximal objects
}

// Example_orderAndLimit shows the presentation clauses of the query
// language.
func Example_orderAndLimit() {
	world := webbase.NewSimulatedWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := sys.QueryString(context.Background(),
		"SELECT Make, Model, Year, Price WHERE Make = 'saab' ORDER BY Price LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range res.Relation.Tuples() {
		model, _ := res.Relation.Get(t, "Model")
		year, _ := res.Relation.Get(t, "Year")
		price, _ := res.Relation.Get(t, "Price")
		fmt.Printf("saab %v, %v: $%v\n", model, year, price)
	}
	// Output:
	// saab 9000, 1988: $6137
	// saab 9000, 1989: $7157
	// saab 9000, 1989: $7869
}

// Example_queryService serves the webbase as a networked query service
// (the same server cmd/webbased runs) and drives it over HTTP: the
// answer arrives as an NDJSON stream, one event per maximal object as it
// completes, then a trailer. The streamed union is exactly the
// in-process answer.
func Example_queryService() {
	world := webbase.NewSimulatedWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{System: sys})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(
		"SELECT Make, Model, Year, Price, BBPrice "+
			"WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' "+
			"AND Condition = 'good' AND Price < BBPrice"))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	total := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// "tuples" carries the rows in a tuples event but the total count
		// in the trailer, so decode each line generically.
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			log.Fatal(err)
		}
		switch ev["event"] {
		case "tuples":
			count := int(ev["count"].(float64))
			total += count
			var names []string
			for _, rel := range ev["object"].([]any) {
				names = append(names, rel.(string))
			}
			fmt.Printf("object {%s}: %d tuples\n", strings.Join(names, ", "), count)
		case "trailer":
			fmt.Printf("stream total %d, trailer says %d\n", total, int(ev["tuples"].(float64)))
		}
	}
	// Output:
	// object {BluePrice, Classifieds, Safety}: 40 tuples
	// object {BluePrice, Dealers, Safety}: 35 tuples
	// stream total 75, trailer says 75
}

// Example_maximalObjects lists the compatible site combinations the
// structured universal relation plans over.
func Example_maximalObjects() {
	world := webbase.NewSimulatedWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}
	for _, obj := range sys.UR.MaximalObjects() {
		fmt.Println(obj)
	}
	// Output:
	// [BluePrice Classifieds Interest Reviews Safety]
	// [BluePrice Dealers Interest Reviews Safety]
}
