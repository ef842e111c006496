package audit

import (
	"bytes"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// recordTrace runs a fully-traced PaperTree simulation and returns the
// JSONL bytes a dtpsim -trace-out run would have produced.
func recordTrace(t *testing.T, seed uint64) []byte {
	t.Helper()
	sch := sim.NewScheduler()
	// Firehose tracing on the paper tree emits ~34 events/µs; size the
	// ring so the one-time INIT/synced events are still present at the
	// end of the window instead of evicted by beacon traffic.
	tr := telemetry.NewTracer(1 << 20)
	tr.SetKinds() // firehose: the analyzer wants beacon_rx and counter_jump
	n, err := core.NewNetwork(sch, seed, topo.PaperTree(), core.DefaultConfig(), core.WithTelemetry(telemetry.New(), tr))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(2 * sim.Millisecond)
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestAnalyzeEndToEnd(t *testing.T) {
	raw := recordTrace(t, 1)
	events, err := telemetry.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace round-trip lost all events")
	}
	g := topo.PaperTree()
	r := Analyze(events, &g, 0)

	// The paper's Figure 5 calibration: one-way delay on 10 m cables
	// measures 43-45 port cycles.
	lo, hi, nOWD := r.OWDRange()
	if nOWD == 0 {
		t.Fatal("no OWD samples in trace")
	}
	if lo < 43 || hi > 45 {
		t.Fatalf("OWD range %d..%d outside the paper's 43..45 cycles", lo, hi)
	}

	if r.Offsets.Total() == 0 {
		t.Fatal("no beacon offsets despite firehose tracing")
	}
	// Accepted beacons sit inside the 8-unit guard band by construction.
	if olo, ohi := r.Offsets.Range(); olo < -8 || ohi > 8 {
		t.Fatalf("beacon offsets %d..%d ticks, want within the ±8 guard band", olo, ohi)
	}

	foundSynced := false
	for _, d := range r.Dwell {
		if d.State == "synced" && d.Total > 0 {
			foundSynced = true
		}
	}
	if !foundSynced {
		t.Fatal("dwell table records no time in synced state")
	}
	if len(r.Violations) != 0 {
		t.Fatalf("healthy run reports %d violations", len(r.Violations))
	}

	var out strings.Builder
	if err := r.WriteText(&out, 5); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{
		"== Trace window",
		"== Port state dwell times",
		"== INIT one-way delays (port cycles)",
		"== Beacon offset distribution, ticks (Figure 6c style)",
		"== Counter-jump causality chains",
		"== Bound violations\nnone",
	} {
		if !strings.Contains(out.String(), section) {
			t.Fatalf("report missing %q:\n%s", section, out.String())
		}
	}
}

// TestAnalyzeDeterministic is the acceptance criterion that dtptrace
// output is byte-deterministic per seed: identical runs must render
// identical reports.
func TestAnalyzeDeterministic(t *testing.T) {
	g := topo.PaperTree()
	render := func() string {
		raw := recordTrace(t, 9)
		events, err := telemetry.ReadJSONL(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := Analyze(events, &g, 0).WriteText(&out, 5); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed rendered different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestPortPeers(t *testing.T) {
	m := portPeers(topo.Pair())
	if m["h0[0]"] != "h1[0]" || m["h1[0]"] != "h0[0]" {
		t.Fatalf("pair peers wrong: %v", m)
	}
	m = portPeers(topo.PaperTree())
	// Link order: s0-s1 first, then s0-s2, s0-s3, then s1's hosts.
	for port, want := range map[string]string{
		"s0[0]": "s1[0]",
		"s0[2]": "s3[0]",
		"s1[1]": "s4[0]",
		"s4[0]": "s1[1]",
	} {
		if m[port] != want {
			t.Fatalf("peer of %s = %q, want %q (map %v)", port, m[port], want, m)
		}
	}
}

func TestBuildChainsSynthetic(t *testing.T) {
	peers := portPeers(topo.Chain(3)) // h0 - sw1 - sw2 - h1, ports in link order
	// A jump wavefront h0 -> sw1 -> sw2 (each jump lands on the port that
	// received the causing beacon), plus one jump far outside the window.
	jumps := []telemetry.Event{
		{Seq: 1, At: 1000, Kind: telemetry.KindCounterJump, Who: "h0[0]", V1: 4},
		{Seq: 2, At: 1500, Kind: telemetry.KindCounterJump, Who: "sw1[0]", V1: 3},
		{Seq: 3, At: 2100, Kind: telemetry.KindCounterJump, Who: "sw2[0]", V1: 2},
		{Seq: 4, At: 900 * sim.Microsecond, Kind: telemetry.KindCounterJump, Who: "h1[0]", V1: 1},
	}
	chains := buildChains(jumps, peers, 10*sim.Microsecond)
	if len(chains) != 1 {
		t.Fatalf("got %d chains, want 1: %+v", len(chains), chains)
	}
	c := chains[0]
	if len(c.Ports) != 3 {
		t.Fatalf("chain length %d, want 3: %+v", len(c.Ports), c)
	}
	for i := 1; i < len(c.Times); i++ {
		if c.Times[i] <= c.Times[i-1] {
			t.Fatalf("chain not chronological: %+v", c)
		}
	}
	if c.Ports[0] != "h0[0]" || c.Ports[2] != "sw2[0]" {
		t.Fatalf("chain ports wrong: %+v", c)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	r := Analyze(nil, nil, 0)
	if r.Events != 0 {
		t.Fatal("phantom events")
	}
	var out strings.Builder
	if err := r.WriteText(&out, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no state_change events in trace") {
		t.Fatalf("empty report unexpected:\n%s", out.String())
	}
}
