package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json -compare needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, per (end-to-end metric, workload), both values,
// the ratio b÷a with a as its base, and whether b is within the metric's
// bound of a; then checks that every exact statistic and digest is
// identical. It returns false if anything is outside or differs.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for i := range a.Runs {
		ra := &a.Runs[i]
		rb := findRun(b, ra.Workload)
		if rb == nil {
			fmt.Fprintf(w, "%-16s missing from %s\n", ra.Workload, pathB)
			ok = false
			continue
		}
		if ra.Seed != rb.Seed || ra.Seconds != rb.Seconds {
			fmt.Fprintf(w, "%-16s seed/seconds differ (%d/%g vs %d/%g): not comparable\n",
				ra.Workload, ra.Seed, ra.Seconds, rb.Seed, rb.Seconds)
			ok = false
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			ratio := vb / va
			// How much worse b is than a, as a share of a.
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := fmt.Sprintf("within %.0f%%", m.Bound*100)
			if worse > m.Bound {
				verdict = fmt.Sprintf("OUTSIDE %.0f%% (%.1f%% worse)", m.Bound*100, worse*100)
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %9.4f  %s\n", ra.Workload, m.Name, va, vb, ratio, verdict)
		}
		for _, n := range exactNames {
			if ra.Exact[n] != rb.Exact[n] {
				fmt.Fprintf(w, "%-16s %-28s %v != %v  EXACT METRIC DIFFERS\n", ra.Workload, n, ra.Exact[n], rb.Exact[n])
				ok = false
			}
		}
		if ra.Failed != rb.Failed {
			fmt.Fprintf(w, "%-16s failed ops %d != %d\n", ra.Workload, ra.Failed, rb.Failed)
			ok = false
		}
		verdict := "identical"
		if ra.Digest != rb.Digest {
			verdict = "DIFFERS from " + rb.Digest[:16]
			ok = false
		}
		fmt.Fprintf(w, "%-16s %-14s %s  %s\n", ra.Workload, "digest", ra.Digest[:16], verdict)
	}
	return ok, nil
}

func findRun(rf *resultsFile, workload string) *runRecord {
	for i := range rf.Runs {
		if rf.Runs[i].Workload == workload {
			return &rf.Runs[i]
		}
	}
	return nil
}
