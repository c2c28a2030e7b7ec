package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/sites"
)

// readStream parses a 200 NDJSON response into its event lines and
// returns (all lines, the decoded trailer).
func readStream(t *testing.T, resp *http.Response) ([]map[string]any, map[string]any) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("malformed stream line %q: %v", sc.Text(), err)
		}
		events = append(events, m)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last["event"] != "trailer" {
		t.Fatalf("stream ends with %v, want trailer", last["event"])
	}
	return events, last
}

// TestPrunedQueryEndToEnd drives a LIMIT query through the HTTP server
// and checks it against the semantic reference: the same query without
// LIMIT, run in-process, cut to its first n distinct tuples in plan
// order. The trailer's stats must report the pruned accesses, and
// /metrics must expose a fetches_pruned_total that agrees with them (and
// per-reason labels that sum to it).
func TestPrunedQueryEndToEnd(t *testing.T) {
	const (
		unlimited = "SELECT Make, Model, Year, Price WHERE Make = 'ford'"
		limit     = 1
	)
	query := fmt.Sprintf("%s LIMIT %d", unlimited, limit)

	ref, err := core.New(core.Config{Fetcher: sites.BuildWorld().Server, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refRes, _, err := ref.QueryString(context.Background(), unlimited)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(encodeTuples(refRes.Relation.Limit(limit).Tuples()))
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := newCarServer(t, core.Config{Workers: 1}, Config{})
	events, trailer := readStream(t, postQuery(t, ts.URL, "", query))
	var streamed []any
	for _, ev := range events {
		switch ev["event"] {
		case "tuples":
			rows, _ := ev["tuples"].([]any)
			streamed = append(streamed, rows...)
		case "unavailable", "skipped":
			t.Errorf("healthy LIMIT query streamed %v", ev)
		}
	}
	got, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("streamed tuples diverge from the reference\ngot:  %s\nwant: %s", got, want)
	}
	if n, _ := trailer["tuples"].(float64); n != limit {
		t.Errorf("trailer tuples = %v, want %d", trailer["tuples"], limit)
	}
	if trailer["degradation"] != nil || trailer["skipped"] != nil {
		t.Errorf("healthy LIMIT query reports degradation or skips: %v", trailer)
	}

	stats, ok := trailer["stats"].(map[string]any)
	if !ok {
		t.Fatalf("trailer without stats: %v", trailer)
	}
	pruned, _ := stats["PrunedFetches"].(float64)
	if pruned == 0 {
		t.Fatalf("trailer reports no pruned fetches: %v", stats)
	}
	byReason, _ := stats["PrunedByReason"].(map[string]any)
	var reasonSum float64
	for _, n := range byReason {
		f, _ := n.(float64)
		reasonSum += f
	}
	if reasonSum != pruned {
		t.Errorf("trailer PrunedByReason sums to %v, PrunedFetches=%v", reasonSum, pruned)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"counter fetches_pruned_total 1",
		`counter fetches_pruned_total{reason="limit"} 1`,
		`counter fetches_pruned_total{reason="unsat-where"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
}

// TestBadOrderByQueriesRejected pins the server-side classification of
// the newly rejected ORDER BY shapes: trailing commas and duplicate sort
// keys must 400 as bad-query, not reach evaluation.
func TestBadOrderByQueriesRejected(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{Workers: 1}, Config{})
	for _, q := range []string{
		"SELECT Make ORDER BY Make,",
		"SELECT Make ORDER BY Price, Price",
		"SELECT Make ORDER BY Price DESC, Price",
	} {
		resp := postQuery(t, ts.URL, "", q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", q, resp.StatusCode)
			continue
		}
		if got := envelope(t, resp); got.Code != "bad-query" {
			t.Errorf("%q: code = %q, want bad-query", q, got.Code)
		}
	}
}
