package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is read, when present, for each metric's bound.
const benchmarkFile = "BENCHMARK.json"

type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// metricSummary is one metric over a workload's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Values []float64 `json:"values"`
}

// runSuite runs every workload (or only the named one) `runs` times
// untraced, with seeds seed0, seed0+1, ..., then once traced, each as a
// child process of this binary, and prints and records each metric's
// median and quartiles.
func runSuite(only string, seed0 int64, runs int, seconds float64) error {
	var selected []workload
	for _, w := range workloads {
		if only == "" || w.name == only {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no workload %q", only)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile(benchmarkFile); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("%s: %w", benchmarkFile, err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	var failures []string
	summary := map[string]map[string]*metricSummary{}
	traced := map[string]map[string]metric{}
	for _, w := range selected {
		summary[w.name] = map[string]*metricSummary{}
		for r := 0; r < runs; r++ {
			seed := seed0 + int64(r)
			res, err := child(exe, w.name, seed, seconds, 0)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s seed %d: %v", w.name, seed, err))
				continue
			}
			for k, m := range res.Metrics {
				s := summary[w.name][k]
				if s == nil {
					s = &metricSummary{Unit: m.Unit}
					summary[w.name][k] = s
				}
				s.Values = append(s.Values, m.Value)
			}
		}
		res, err := child(exe, w.name, seed0, seconds, 1)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s traced: %v", w.name, err))
			continue
		}
		traced[w.name] = res.Metrics
	}

	for _, w := range selected {
		fmt.Printf("\n%s (%d runs, %gs each)\n", w.name, runs, seconds)
		fmt.Printf("  %-22s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, k := range sortedKeys(summary[w.name]) {
			s := summary[w.name][k]
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			if s.Median != 0 {
				s.Spread = (s.Q3 - s.Q1) / s.Median
			}
			flag := ""
			if b, ok := bounds[k]; ok && k != "setup_s" && s.Spread > b/3 {
				flag = "  spread above a third of the bound"
			}
			fmt.Printf("  %-22s %-6s %12.4f %12.4f %12.4f %8.4f %6s%s\n", k, s.Unit, s.Median, s.Q1, s.Q3, s.Spread, fmtBound(bounds, k), flag)
		}
		if m, ok := traced[w.name]; ok {
			fmt.Printf("  traced run, seed %d:\n", seed0)
			for _, k := range sortedKeys(m) {
				fmt.Printf("    %-34s %12.4f %s\n", k, m[k].Value, m[k].Unit)
			}
		}
	}
	prov := map[string]any{"env": env(), "runs": runs, "seconds": seconds, "first_seed": seed0,
		"untraced": summary, "traced": traced, "failures": failures}
	data, err := json.MarshalIndent(prov, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "provenance.json"), data, 0o644); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func fmtBound(bounds map[string]float64, k string) string {
	if b, ok := bounds[k]; ok {
		return strconv.FormatFloat(b, 'g', -1, 64)
	}
	return "-"
}

// child runs one benchmark invocation and parses its last output line.
func child(exe, workload string, seed int64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d\n", workload, seed, trace)
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("run incorrect (attempted %d, failed %d): %v", res.Attempted, res.Failed, runErr)
	}
	return &res, nil
}
