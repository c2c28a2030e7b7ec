package navmap_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"webbase/internal/carmaps"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

// TestMapJSONRoundTrip saves and reloads every standard map, then checks
// the reloaded map behaves identically (same derived expression results).
func TestMapJSONRoundTrip(t *testing.T) {
	w := sites.BuildWorld()
	inputs := map[string]map[string]string{
		"newsday":            {"Make": "ford", "Model": "escort"},
		"nyTimes":            {"Make": "ford", "Model": "escort"},
		"newYorkDaily":       {"Make": "ford"},
		"carPoint":           {"Make": "ford", "Model": "escort"},
		"autoWeb":            {"Make": "ford", "Model": "escort"},
		"wwWheels":           {"Make": "ford", "Model": "escort"},
		"autoConnect":        {"Make": "ford", "Condition": "good"},
		"yahooCars":          {"Make": "ford", "Model": "escort"},
		"kellys":             {"Make": "jaguar", "Model": "xj6", "Condition": "good"},
		"carAndDriver":       {"Make": "jaguar"},
		"carReviews":         {"Make": "honda", "Model": "civic"},
		"carFinance":         {"ZipCode": "11201"},
		"newsdayCarFeatures": nil, // needs a live Url; round-trip structurally only
	}
	for name, m := range carmaps.AllMaps() {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var loaded navmap.Map
			if err := json.Unmarshal(data, &loaded); err != nil {
				t.Fatal(err)
			}
			// Structural identity.
			n1, e1 := m.Size()
			n2, e2 := loaded.Size()
			if n1 != n2 || e1 != e2 || m.Start != loaded.Start || m.Name != loaded.Name {
				t.Fatalf("structure changed: (%d,%d,%s) vs (%d,%d,%s)", n1, e1, m.Start, n2, e2, loaded.Start)
			}
			if loaded.String() != m.String() {
				t.Fatalf("rendering changed:\n%s\nvs\n%s", m, &loaded)
			}
			// Behavioural identity.
			in := inputs[name]
			if in == nil {
				return
			}
			origExpr, err := navmap.Translate(m)
			if err != nil {
				t.Fatal(err)
			}
			loadedExpr, err := navmap.Translate(&loaded)
			if err != nil {
				t.Fatal(err)
			}
			origRel, _, err := origExpr.Execute(context.Background(), w.Server, in)
			if err != nil {
				t.Fatal(err)
			}
			loadedRel, _, err := loadedExpr.Execute(context.Background(), w.Server, in)
			if err != nil {
				t.Fatal(err)
			}
			if origRel.Len() != loadedRel.Len() {
				t.Errorf("tuples: %d vs %d", origRel.Len(), loadedRel.Len())
			}
		})
	}
}

func TestMapJSONErrors(t *testing.T) {
	var m navmap.Map
	cases := map[string]string{
		"garbage":      `{`,
		"bad version":  `{"version": 99, "name": "x"}`,
		"unknown kind": `{"version":1,"name":"x","start_url":"http://x/","schema":["A"],"start":"d","nodes":[{"id":"d","is_data":true,"extract":{"columns":[{"header":"A","attr":"A"}]}}],"edges":[{"from":"d","to":"d","action":{"kind":"teleport"}}]}`,
		"invalid map":  `{"version":1,"name":"x","schema":["A"],"start":"missing","nodes":[],"edges":[]}`,
	}
	for name, data := range cases {
		if err := json.Unmarshal([]byte(data), &m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMapJSONStableFields(t *testing.T) {
	data, err := json.Marshal(carmaps.Newsday())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"version":2`, `"fingerprint":"`, `"name":"newsday"`, `"kind":"submit"`,
		`"link_name":"Car Features"`, `"form_name":"f1"`} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized form missing %q:\n%s", want, s)
		}
	}
}

// TestMapJSONRepairedEdgeRoundTrip is the regression test for the v2
// format carrying repaired edges: a map whose edge was re-anchored onto a
// renamed link must round-trip byte-identically (including its
// fingerprint), and the reloaded copy must keep the repaired name.
func TestMapJSONRepairedEdgeRoundTrip(t *testing.T) {
	m := carmaps.Newsday().Clone()
	renamed := false
	for _, e := range m.Edges() {
		if e.Action.LinkName == "Automobiles" {
			e.Action.LinkName = "Cars & Trucks" // the post-redesign name
			renamed = true
		}
	}
	if !renamed {
		t.Fatal("newsday map no longer has the Automobiles edge")
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var loaded navmap.Map
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if got, want := navmap.Fingerprint(&loaded), navmap.Fingerprint(m); got != want {
		t.Errorf("fingerprint changed across round trip: %s vs %s", got, want)
	}
	if fp, base := navmap.Fingerprint(m), navmap.Fingerprint(carmaps.Newsday()); fp == base {
		t.Error("repaired map has the same fingerprint as the base map")
	}
	kept := false
	for _, e := range loaded.Edges() {
		if e.Action.LinkName == "Cars & Trucks" {
			kept = true
		}
	}
	if !kept {
		t.Error("repaired link name lost across round trip")
	}
	again, err := json.Marshal(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("serialized form not byte-identical across round trip")
	}
}

// TestMapJSONVersion1Accepted: fingerprint-free v1 files (written before
// the format bump) still load.
func TestMapJSONVersion1Accepted(t *testing.T) {
	data := []byte(`{"version":1,"name":"x","start_url":"http://x/","schema":["A"],"start":"d","nodes":[{"id":"d","is_data":true,"extract":{"columns":[{"header":"A","attr":"A"}]}}],"edges":[]}`)
	var m navmap.Map
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("v1 map rejected: %v", err)
	}
	if m.Name != "x" {
		t.Errorf("loaded name %q", m.Name)
	}
}

// TestMapJSONCorruptFingerprintRejected: a v2 file whose content no
// longer matches its fingerprint is refused instead of silently loaded.
func TestMapJSONCorruptFingerprintRejected(t *testing.T) {
	data, err := json.Marshal(carmaps.Newsday())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(data), `"name":"newsday"`, `"name":"tampered"`, 1)
	var m navmap.Map
	err = json.Unmarshal([]byte(corrupt), &m)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt map loaded: err=%v", err)
	}
}
