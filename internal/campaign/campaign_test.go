package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func msec(n int) Duration { return Duration(time.Duration(n) * time.Millisecond) }

func TestGridDefaultsAndExpansionOrder(t *testing.T) {
	g := Grid{
		Topos:     []string{"pair", "chain:3"},
		Seeds:     []uint64{7, 8},
		Durations: []Duration{msec(1)},
	}
	pts := g.Expand()
	if len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
	want := []struct {
		topo string
		seed uint64
	}{{"pair", 7}, {"pair", 8}, {"chain:3", 7}, {"chain:3", 8}}
	for i, w := range want {
		p := pts[i]
		if p.Index != i || p.Topo != w.topo || p.Seed != w.seed {
			t.Fatalf("point %d = %+v, want topo=%s seed=%d index=%d", i, p, w.topo, w.seed, i)
		}
		if p.Load != "none" || p.Beacon != 200 || p.SamplePeriod != Duration(100*time.Microsecond) ||
			p.SyncTimeout != Duration(time.Second) {
			t.Fatalf("point %d missing defaults: %+v", i, p)
		}
	}
}

func TestGridValidate(t *testing.T) {
	for _, bad := range []Grid{
		{Loads: []string{"heavy"}},
		{Beacons: []uint64{0}},
		{Durations: []Duration{-msec(1)}},
		{BER: -1},
		{BER: 1.5},
		{BER: math.NaN()}, // compares false both ways; once ran as BER 0
		// Run-level errors, caught before any run starts rather than
		// reported by every point in its row.
		{Topos: []string{"moebius:4"}},
		{Chaos: []string{"/nonexistent.json"}},
		{Liars: []int{3}},
		{Liars: []int{-1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("grid %+v validated, want error", bad)
		}
	}
	if err := (Grid{}).Validate(); err != nil {
		t.Fatalf("empty grid should validate with defaults: %v", err)
	}
}

// TestGridCadenceSigns: a negative cadence in grid JSON is an error, not
// a silent default; zero still selects the default. The JSON decoder
// rejects a negative duration, and Validate rejects one in a grid built
// in Go.
func TestGridCadenceSigns(t *testing.T) {
	for _, tc := range []struct {
		json string
		ok   bool
	}{
		{`{"sample_period": "-5ms"}`, false},
		{`{"audit_every": "-5ms"}`, false},
		{`{"sync_timeout": "-1s"}`, false},
		{`{"audit_every": -1}`, false},
		{`{"sample_period": "0s", "audit_every": 0, "sync_timeout": "0s"}`, true},
		{`{"sample_period": "50us", "audit_every": "1ms", "sync_timeout": "2s"}`, true},
	} {
		var g Grid
		err := json.Unmarshal([]byte(tc.json), &g)
		if err == nil {
			err = g.Validate()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode and Validate = %v, want ok=%v", tc.json, err, tc.ok)
		}
	}
	if err := (Grid{SamplePeriod: -1}).Validate(); err == nil {
		t.Error("Validate accepts a negative sample_period")
	}
}

func TestRunPointBadTopology(t *testing.T) {
	res := RunPoint(Point{Topo: "moebius:4", Seed: 1, Load: "none", Beacon: 200, Duration: msec(1)}, "")
	if res.Err == "" || res.Synced {
		t.Fatalf("bad topology should produce an errored result, got %+v", res)
	}
	if res.OK() {
		t.Fatal("errored result must not report OK")
	}
}

func TestRunSmallGridPasses(t *testing.T) {
	g := Grid{
		Name:      "unit",
		Topos:     []string{"pair"},
		Seeds:     []uint64{1, 2},
		Durations: []Duration{msec(2)},
	}
	rep, err := Run(g, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("campaign failed: %+v", rep.Aggregate)
	}
	for i, r := range rep.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d: merge out of grid order", i, r.Index)
		}
		if !r.Synced || !r.WithinBound || r.BoundTicks <= 0 {
			t.Fatalf("run %d unhealthy: %+v", i, r)
		}
		if r.OWDMinTicks <= 0 || r.OWDMaxTicks < r.OWDMinTicks {
			t.Fatalf("run %d OWD range [%d, %d] implausible", i, r.OWDMinTicks, r.OWDMaxTicks)
		}
		if r.Wall <= 0 {
			t.Fatalf("run %d missing wall time", i)
		}
	}
	if rep.Aggregate.Runs != 2 || rep.Aggregate.Passed != 2 {
		t.Fatalf("aggregate %+v, want 2/2 passed", rep.Aggregate)
	}
}

func TestOnResultStreamsInGridOrder(t *testing.T) {
	g := Grid{
		Topos:     []string{"pair"},
		Seeds:     []uint64{1, 2, 3, 4, 5, 6},
		Durations: []Duration{msec(1)},
	}
	var order []int
	_, err := Run(g, Options{Jobs: 4, OnResult: func(r *Result) {
		order = append(order, r.Index)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("streamed %d results, want 6", len(order))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("stream order %v not grid order", order)
		}
	}
}

func TestTimeServicePointServesCoveredIntervals(t *testing.T) {
	if testing.Short() {
		t.Skip("serving-plane campaign point is slow")
	}
	g := Grid{
		Name:        "timesvc",
		Topos:       []string{"pair"},
		Seeds:       []uint64{11},
		Durations:   []Duration{msec(300)},
		TimeService: true,
	}
	rep, err := Run(g, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Err != "" {
		t.Fatalf("time-service run errored: %s", r.Err)
	}
	// 300 ms at the 100 µs cadence is ~3000 probes on the one served
	// host; the first ~60 ms fail closed while the follower warms up.
	if r.TimeReads < 1000 {
		t.Fatalf("only %d interval reads; serving plane barely ran", r.TimeReads)
	}
	if r.TimeUncovered != 0 {
		t.Fatalf("%d served intervals excluded true time on a fault-free run", r.TimeUncovered)
	}
	if r.TimePublishes < 10 {
		t.Fatalf("only %d publishes over 300 ms", r.TimePublishes)
	}
	if r.TimeWidthP50Ps <= 0 || r.TimeWidthP99Ps < r.TimeWidthP50Ps {
		t.Fatalf("implausible width percentiles p50=%.0f p99=%.0f", r.TimeWidthP50Ps, r.TimeWidthP99Ps)
	}
	if !r.OK() {
		t.Fatalf("run not OK: %+v", r)
	}
	if rep.Aggregate.TimeReads != r.TimeReads || rep.Aggregate.TimeUncovered != 0 {
		t.Fatalf("aggregate time accounting wrong: %+v", rep.Aggregate)
	}
}

func TestChaosPointVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign point is slow")
	}
	g := Grid{
		Topos:     []string{"chain:5"},
		Seeds:     []uint64{1},
		Durations: []Duration{msec(5)},
		Chaos:     []string{"../../examples/chaos/storm.json"},
	}
	rep, err := Run(g, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Err != "" {
		t.Fatalf("chaos run errored: %s", r.Err)
	}
	if !r.ChaosOK {
		t.Fatalf("storm scenario failed verification: %s", r.ChaosErr)
	}
	if r.AuditViolations != 0 {
		t.Fatalf("%d unexcused audit violations under declared fault windows", r.AuditViolations)
	}
	if rep.Aggregate.ChaosRuns != 1 || rep.Aggregate.ChaosVerified != 1 {
		t.Fatalf("aggregate chaos accounting wrong: %+v", rep.Aggregate)
	}
}

func TestLoadGridJSON(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/grid.json"
	if err := writeFile(path, `{
		"name": "smoke",
		"topos": ["chain:3"],
		"seeds": [1, 2, 3],
		"durations": ["2ms"],
		"wander": true
	}`); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "smoke" || len(g.Seeds) != 3 || !g.Wander {
		t.Fatalf("loaded grid %+v", g)
	}
	if d := g.Durations[0].Std(); d != 2*time.Millisecond {
		t.Fatalf("duration %v, want 2ms", d)
	}
	if _, err := LoadGrid(dir + "/missing.json"); err == nil {
		t.Fatal("missing grid file should error")
	}
	for _, bad := range []string{
		`{"loads": ["heavy"]}`,
		// Typos used to run the defaults: pair at seed 1, exit 0.
		`{"topo": ["chain:3"], "seed": [5, 6], "durations": ["2ms"]}`,
		`{"topos": ["pair"]} {"topos": ["tree"]}`,
		`{"topos": ["moebius:4"]}`,
	} {
		if err := writeFile(path, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGrid(path); err == nil {
			t.Errorf("LoadGrid accepted %s", bad)
		}
	}
}

// FuzzGridJSON: strict decoding and validating any grid never panics;
// an accepted grid expands to the product of its defaulted dimensions,
// in index order, and re-encodes to bytes that decode and validate
// unchanged. Grids naming scenario files are skipped: Validate would
// read them, and the scenario decoder has its own target.
func FuzzGridJSON(f *testing.F) {
	smoke, err := os.ReadFile("../../examples/campaign/smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	f.Add([]byte(`{"topo": ["chain:3"], "seed": [5, 6], "durations": ["2ms"]}`))
	f.Add([]byte(`{"topos": ["moebius:4"]}`))
	f.Add([]byte(`{"topos": ["pair"], "liars": [3]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := decodeGrid(b)
		if err != nil || slices.ContainsFunc(g.Chaos, func(c string) bool { return c != "" }) {
			return
		}
		d := g.withDefaults()
		n := len(d.Topos) * len(d.Seeds) * len(d.Loads) * len(d.Beacons) * len(d.Durations) *
			len(d.Chaos) * len(d.Hardened) * len(d.Liars) * len(d.Disciplines)
		if n > 10_000 {
			return // a grid this size is valid but too slow to expand per input
		}
		if g.Validate() != nil {
			return
		}
		pts := g.Expand()
		if len(pts) != n {
			t.Fatalf("expanded %d points, want %d", len(pts), n)
		}
		for i, p := range pts {
			if p.Index != i {
				t.Fatalf("point %d has index %d", i, p.Index)
			}
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not encode: %v", err)
		}
		back, err := decodeGrid(out)
		if err != nil {
			t.Fatalf("re-encoded grid does not decode: %v\n%s", err, out)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-encoded grid does not validate: %v\n%s", err, out)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the grid:\n%s\n%s", out, again)
		}
	})
}

func TestResultJSONExcludesWall(t *testing.T) {
	r := Result{Point: Point{Topo: "pair", Seed: 1, Wander: true, SamplePeriod: msec(7)}, Wall: 123 * time.Second}
	var b bytes.Buffer
	if err := WriteResultJSON(&b, &r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "123") || strings.Contains(strings.ToLower(b.String()), "wall") {
		t.Fatalf("wall time leaked into deterministic JSON: %s", b.String())
	}
	// The grid-wide settings a Point carries stay out of result rows.
	if strings.Contains(b.String(), "wander") || strings.Contains(b.String(), "7ms") {
		t.Fatalf("run settings leaked into the result row: %s", b.String())
	}
}

func TestSeedSweep(t *testing.T) {
	got := SeedSweep(5, 3)
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Fatalf("SeedSweep(5,3) = %v", got)
	}
	if got := SeedSweep(9, 0); len(got) != 1 || got[0] != 9 {
		t.Fatalf("SeedSweep(9,0) = %v", got)
	}
}
