// Command mapbuild demonstrates mapping by example (Section 7): it replays
// the recorded browsing sessions against the simulated Web, builds each
// site's navigation map, prints the automation statistics, and can export
// a map as text or Graphviz DOT.
//
// Usage:
//
//	mapbuild                  # map every site, print the stats table
//	mapbuild -site newsday    # print the newsday map
//	mapbuild -site newsday -dot > newsday.dot
//	mapbuild -check           # verify every map against the (unchanged) sites
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"webbase/internal/carmaps"
	"webbase/internal/core"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

func main() {
	var (
		site  = flag.String("site", "", "print the named site's built map instead of the stats table")
		dot   = flag.Bool("dot", false, "with -site: emit Graphviz DOT")
		expr  = flag.Bool("expr", false, "with -site: also print the derived navigation expression")
		check = flag.Bool("check", false, "re-crawl every map against the sites and report drift")
		save  = flag.String("save", "", "directory to save every built map as <relation>.json")
		load  = flag.String("load", "", "load a saved map file and print it (with -expr: its expression)")
	)
	flag.Parse()

	world := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: world.Server}

	if *check {
		runCheck(b)
		return
	}
	if *load != "" {
		runLoad(*load, *expr)
		return
	}
	if *save != "" {
		runSave(b, world, *save)
		return
	}
	if *site == "" {
		stats, err := core.MapStats(world.Server)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Mapping by example — automation statistics per site:")
		for _, s := range stats {
			fmt.Println("  " + s.String())
		}
		return
	}

	m := findMap(b, world, *site)
	if m == nil {
		fatal(fmt.Errorf("no session for site %q", *site))
	}
	if *dot {
		fmt.Print(m.DOT())
		return
	}
	fmt.Print(m)
	if *expr {
		e, err := navmap.Translate(m)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nDerived navigation expression (textual syntax):")
		fmt.Print(navcalc.FormatExpression(e))
	}
}

func findMap(b *mapbuilder.Builder, world *sites.World, name string) *navmap.Map {
	featURL, err := sampleURL(world)
	if err != nil {
		fatal(err)
	}
	for _, s := range carmaps.Sessions(featURL) {
		if s.Relation == name {
			m, _, err := b.Build(s)
			if err != nil {
				fatal(err)
			}
			return m
		}
	}
	return nil
}

func sampleURL(world *sites.World) (string, error) {
	expr, err := navmap.Translate(carmaps.Newsday())
	if err != nil {
		return "", err
	}
	rel, _, err := expr.Execute(context.Background(), world.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil || rel.Len() == 0 {
		return "", fmt.Errorf("sampling features url: %v", err)
	}
	u, _ := rel.Get(rel.Tuples()[0], "Url")
	return u.Str(), nil
}

func runCheck(b *mapbuilder.Builder) {
	inputs := map[string]string{
		"Make": "ford", "Model": "escort", "Condition": "good",
		"ZipCode": "11201", "Duration": "36", "Year": "1994",
	}
	clean := true
	for name, m := range carmaps.AllMaps() {
		if m.StartURLVar != "" {
			continue // entered via query-time URL; nothing to re-crawl from
		}
		drifts, err := b.CheckMap(m, inputs)
		if err != nil {
			fmt.Printf("%-20s ERROR: %v\n", name, err)
			clean = false
			continue
		}
		if len(drifts) == 0 {
			fmt.Printf("%-20s ok\n", name)
			continue
		}
		clean = false
		for _, d := range drifts {
			fmt.Printf("%-20s DRIFT: %s\n", name, d)
		}
	}
	if !clean {
		os.Exit(1)
	}
}

// runSave builds every session map and writes the JSON persistence form.
func runSave(b *mapbuilder.Builder, world *sites.World, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	featURL, err := sampleURL(world)
	if err != nil {
		fatal(err)
	}
	for _, s := range carmaps.Sessions(featURL) {
		m, _, err := b.Build(s)
		if err != nil {
			fatal(err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(dir, m.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("saved", path)
	}
}

// runLoad reads a saved map and prints it.
func runLoad(path string, withExpr bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var m navmap.Map
	if err := json.Unmarshal(data, &m); err != nil {
		fatal(err)
	}
	fmt.Print(&m)
	if withExpr {
		e, err := navmap.Translate(&m)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nDerived navigation expression (textual syntax):")
		fmt.Print(navcalc.FormatExpression(e))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapbuild:", err)
	os.Exit(1)
}
