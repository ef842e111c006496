package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// testSize is fullSize at roughly 1/100: the same code paths, a few
// slices each. The serving plane cannot warm up in less than ~80 ms of
// simulated time (reads fail closed until the first calibrations land),
// and a liar point cannot be shorter than its 150 ms fault time, so the
// test leaves the liar grid out (liarSeeds 0).
var testSize = sizing{
	setups: 1, slowSetups: 1, segments: 2,
	treeWindow: 4, fatWindow: 10, serveWindow: 20,
	treeWarm: time.Millisecond, fatWarm: 200 * time.Microsecond,
	serveWarm: 100 * time.Millisecond, calibrate: 100 * time.Millisecond,
	stormSeeds: 1, liarSeeds: 0, warmSeeds: 1,
	readChunk:  2 * time.Millisecond,
	probeMin:   200 * time.Microsecond,
	probeChunk: 400 * time.Microsecond, probeChunks: 1, probeSeeds: 1,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesTables keeps BENCHMARK.json and the Go tables in step
// and inside the contract's limits.
func TestSpecMatchesTables(t *testing.T) {
	sp := loadSpec(t)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range sp.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q (or the why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(sp.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range sp.EndToEnd {
		unique(m.Name)
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, metrics.go %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		unique(m.Name)
		if m != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, metrics.go %+v", i, m, perLayer[i])
		}
	}
	for _, n := range exactNames {
		if !seen[n] {
			t.Errorf("exact statistic %s is not a per-layer metric", n)
		}
	}
}

// runSmall runs one workload at test size.
func runSmall(t *testing.T, w *workload, trace bool) *runRecord {
	t.Helper()
	rc := newRunCtx(w.name, 1, 0.02, trace, testSize, t.TempDir())
	spans, err := rc.run(w)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if trace && (len(spans) < 4 || spans[0].Name != w.name || spans[0].Parent != -1) {
		t.Errorf("%s: %d spans, root %+v", w.name, len(spans), spans[0])
	}
	return rc.rec
}

// TestWorkloadsEmitEveryMetric runs every workload through the command's
// own code and checks each metric BENCHMARK.json names comes out, with
// its unit, as a finite number, and that the driver's line parses.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	sp := loadSpec(t)
	var recs []runRecord
	for i := range workloads {
		w := &workloads[i]
		r := runSmall(t, w, true)
		recs = append(recs, *r)
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		if len(r.Digest) != 64 {
			t.Errorf("%s: digest %q", w.name, r.Digest)
		}
		for _, m := range sp.EndToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive number in %s", w.name, m.Name, v, ok, m.Unit)
			}
		}
		if len(r.EndToEnd) != len(sp.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", w.name, len(r.EndToEnd), len(sp.EndToEnd))
		}
		for _, m := range sp.PerLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite number in %s", w.name, m.Name, v, ok, m.Unit)
			}
		}
		if len(r.PerLayer) != len(sp.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json names %d", w.name, len(r.PerLayer), len(sp.PerLayer))
		}
		var line struct {
			Correct   *bool            `json:"correct"`
			Attempted *uint64          `json:"attempted"`
			Failed    *uint64          `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader([]byte(r.driverLine())))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Errorf("%s: driver line %s: %v", w.name, r.driverLine(), err)
		}
		if len(line.Metrics) != len(sp.PerLayer) {
			t.Errorf("%s: traced driver line carries %d metrics, want the %d per-layer ones", w.name, len(line.Metrics), len(sp.PerLayer))
		}
	}

	// The same seed gives the same digest, traced or not; -compare accepts
	// a record against itself and rejects changed ones.
	again := runSmall(t, &workloads[0], false)
	if len(again.PerLayer) != 0 || len(again.EndToEnd) != len(endToEnd) {
		t.Errorf("untraced run carries %d per-layer and %d end-to-end metrics", len(again.PerLayer), len(again.EndToEnd))
	}
	if again.Digest != recs[0].Digest {
		t.Errorf("%s: digest %s then %s on the same seed", workloads[0].name, recs[0].Digest, again.Digest)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, resultsFile{Runs: recs}); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if ok, err := compareFiles(&out, specPath, a, a); err != nil || !ok {
		t.Errorf("a record does not compare equal to itself (%v):\n%s", err, out.String())
	}
	recs[1].Digest = "0" + recs[1].Digest[1:]
	recs[2].Exact["core.max_offset_ticks"]++
	e := recs[3].EndToEnd["ops_per_s"]
	e.Value /= 2
	recs[3].EndToEnd["ops_per_s"] = e
	if err := writeJSON(b, resultsFile{Runs: recs}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if ok, err := compareFiles(&out, specPath, a, b); err != nil || ok {
		t.Errorf("-compare accepted a changed digest, exact metric and halved throughput (%v):\n%s", err, out.String())
	}
	for _, want := range []string{"DIFFERS", "EXACT METRIC DIFFERS", "OUTSIDE"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("-compare output lacks %q:\n%s", want, out.String())
		}
	}
}
