package audit

import (
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// run builds an instrumented network + auditor and returns both plus the
// scheduler, without running any simulated time yet.
func newAudited(t *testing.T, g topo.Graph, seed uint64, cfg Config, ccfg core.Config, opts ...core.Option) (*core.Network, *Auditor, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, seed, g, ccfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tr := telemetry.NewTracer(4096)
	n.Instrument(reg, tr)
	a := New(n, cfg)
	a.Instrument(reg, tr)
	a.Start()
	n.Start()
	return n, a, reg, tr
}

func TestAuditorPairStaysInBound(t *testing.T) {
	n, a, reg, _ := newAudited(t, topo.Pair(), 1, Config{}, core.DefaultConfig())
	n.Sch.Run(200 * sim.Millisecond)

	if v := a.Violations(); v != 0 {
		t.Fatalf("pair: %d violations, want 0 (%s)", v, a.Summary())
	}
	if a.Checks() == 0 || a.PairChecks() == 0 {
		t.Fatalf("auditor idle: %s", a.Summary())
	}
	if !a.Converged() || a.TimeToSync() < 0 {
		t.Fatalf("pair never converged: %s", a.Summary())
	}
	if a.MinSlackUnits() <= 0 {
		t.Fatalf("min slack %d, want positive headroom", a.MinSlackUnits())
	}
	if w := a.WorstPairOffsetUnits(1, 0); w != a.WorstOffsetUnits() {
		t.Fatalf("pair worst %d != global worst %d", w, a.WorstOffsetUnits())
	}
	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dtp_audit_checks_total",
		"dtp_audit_violations_total 0",
		`dtp_audit_pair_worst_offset_units{pair="h0-h1"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b.String())
		}
	}
}

func TestAuditorFatTreeStaysInBound(t *testing.T) {
	n, a, _, _ := newAudited(t, topo.FatTree(4), 7, Config{}, core.DefaultConfig())
	n.Sch.Run(100 * sim.Millisecond)
	if v := a.Violations(); v != 0 {
		t.Fatalf("fattree: %d violations, want 0 (%s)", v, a.Summary())
	}
	if !a.Converged() {
		t.Fatalf("fattree never converged: %s", a.Summary())
	}
}

// TestAuditorPartitionReconverge is the seed "partition-reconverge"
// scenario: cut the s0-s1 uplink of the paper tree, watch the auditor
// split the network into two audited components without false
// violations, then restore the link and require a recorded
// reconvergence.
func TestAuditorPartitionReconverge(t *testing.T) {
	n, a, _, _ := newAudited(t, topo.PaperTree(), 5, Config{}, core.DefaultConfig())
	n.Sch.Run(50 * sim.Millisecond)
	if !a.Converged() {
		t.Fatalf("tree never converged before partition: %s", a.Summary())
	}

	n.SetLinkDown(0) // s0-s1: splits {s1,s4,s5,s6} from the rest
	n.Sch.RunFor(20 * sim.Millisecond)
	if a.Converged() {
		t.Fatal("auditor still claims convergence across a partition")
	}

	n.SetLinkUp(0)
	n.Sch.RunFor(100 * sim.Millisecond)
	if v := a.Violations(); v != 0 {
		t.Fatalf("partition/heal produced %d violations, want 0 (%s)", v, a.Summary())
	}
	if !a.Converged() {
		t.Fatalf("network never reconverged after heal: %s", a.Summary())
	}
	if len(a.Reconvergences()) == 0 {
		t.Fatalf("no reconvergence recorded: %s", a.Summary())
	}
	if d := a.Reconvergences()[0]; d <= 0 {
		t.Fatalf("nonpositive reconvergence duration %v", d)
	}
}

// LiveBoundUnits is the serving plane's error-bound source: worst 4TD
// bound from one host to any audited peer, tracking the live link set.
func TestAuditorLiveBoundUnits(t *testing.T) {
	n, a, _, _ := newAudited(t, topo.PaperTree(), 9, Config{}, core.DefaultConfig())

	if b := a.LiveBoundUnits("s4"); b != -1 {
		t.Fatalf("bound %d before any check, want -1", b)
	}
	n.Sch.Run(50 * sim.Millisecond)
	if !a.Converged() {
		t.Fatalf("tree never converged: %s", a.Summary())
	}

	// A leaf host's worst peer is a leaf under another aggregation
	// switch: 4 hops, 4 units each.
	leaf := a.LiveBoundUnits("s4")
	if leaf != 4*4 {
		t.Fatalf("s4 live bound %d units, want %d", leaf, 4*4)
	}
	// The root sits 2 hops from every host: strictly tighter.
	if root := a.LiveBoundUnits("s0"); root >= leaf {
		t.Fatalf("root bound %d not tighter than leaf bound %d", root, leaf)
	}
	if b := a.LiveBoundUnits("nosuch"); b != -1 {
		t.Fatalf("bound %d for unknown device, want -1", b)
	}

	// Partition: s4's subtree loses the rest of the tree, so it has no
	// honest all-pairs bound to serve until the link heals.
	n.SetLinkDown(0)
	n.Sch.RunFor(20 * sim.Millisecond)
	if b := a.LiveBoundUnits("s4"); b != -1 {
		t.Fatalf("partitioned s4 still reports bound %d, want -1", b)
	}
	n.SetLinkUp(0)
	n.Sch.RunFor(100 * sim.Millisecond)
	if b := a.LiveBoundUnits("s4"); b != leaf {
		t.Fatalf("healed s4 bound %d, want %d again", b, leaf)
	}
}

// brokenConfig deliberately breaks the resynchronization frequency
// invariant of §3.2: with worst-case ±100 ppm skew and a beacon interval
// stretched to 100000 ticks, counters drift ~20 units between beacons —
// past the 8-unit guard band — so every beacon is rejected as faulty and
// the counters decouple. The auditor must catch the resulting breach.
func brokenConfig() core.Config {
	ccfg := core.DefaultConfig()
	ccfg.BeaconIntervalTicks = 100000
	return ccfg
}

func TestAuditorDetectsBrokenBound(t *testing.T) {
	n, a, _, tr := newAudited(t, topo.Pair(), 2, Config{}, brokenConfig(),
		core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	tr.SetKinds() // firehose on: causal context needs beacon-level events
	n.Sch.Run(20 * sim.Millisecond)

	if a.Violations() == 0 {
		t.Fatalf("no violations despite broken beacon cadence: %s", a.Summary())
	}
	v := a.LastViolation()
	if v == nil {
		t.Fatal("violations counted but none emitted")
	}
	if v.A != "h0" || v.B != "h1" || v.Hops != 1 {
		t.Fatalf("violation identity wrong: %+v", v)
	}
	if abs(v.OffsetUnits) <= v.BoundUnits {
		t.Fatalf("emitted violation not out of bound: %+v", v)
	}
	if len(v.Context) == 0 {
		t.Fatal("violation has empty causal context")
	}
	for _, e := range v.Context {
		if e.Kind == telemetry.KindBoundViolation {
			t.Fatal("causal context polluted with violation events")
		}
		if !touches(e.Who, "h0") && !touches(e.Who, "h1") {
			t.Fatalf("context event %v does not touch either device", e)
		}
	}

	var found *telemetry.Event
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindBoundViolation {
			found = &e
			break
		}
	}
	if found == nil {
		t.Fatal("no bound_violation event in trace")
	}
	if found.Who != "h0~h1" || !strings.Contains(found.Detail, "hops=1") ||
		!strings.Contains(found.Detail, "ctx=[") {
		t.Fatalf("violation event malformed: %+v", found)
	}
}

// TestAuditorViolationEventCap checks that a persistently broken network
// emits at most maxViolationEvents trace events per check while the
// counter keeps counting every breach.
func TestAuditorViolationEventCap(t *testing.T) {
	n, a, _, tr := newAudited(t, topo.Star(4), 2, Config{}, brokenConfig(),
		core.WithPPM(map[string]float64{"sw": 100, "timeserver": -100,
			"s4": -100, "s5": -100, "s6": -100, "s7": -100}))
	n.Sch.Run(20 * sim.Millisecond)

	if a.Violations() == 0 {
		t.Skip("star did not desynchronize under this seed; covered by pair test")
	}
	emitted := 0
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindBoundViolation {
			emitted++
		}
	}
	if emitted == 0 {
		t.Fatal("no violation events emitted")
	}
	if uint64(emitted) >= a.Violations() && a.Violations() > uint64(a.cfgChecks()) {
		t.Fatalf("event cap not applied: %d events for %d violations", emitted, a.Violations())
	}
}

// cfgChecks exposes the check count as an int for the cap test.
func (a *Auditor) cfgChecks() int { return int(a.checks) }

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestExpectDegradationExcusesWindows: breaches inside a declared
// expected-degradation window count as excused, breaches outside it
// still count as violations, and both surface in metrics and Summary.
func TestExpectDegradationExcusesWindows(t *testing.T) {
	n, a, reg, _ := newAudited(t, topo.Pair(), 2, Config{}, brokenConfig(),
		core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	// The broken cadence desynchronizes the pair permanently; excuse
	// only the first stretch of the run.
	a.ExpectDegradation(0, 10*sim.Millisecond, "test fault")
	n.Sch.Run(25 * sim.Millisecond)

	if a.ExcusedViolations() == 0 {
		t.Fatalf("no excused breaches inside the window: %s", a.Summary())
	}
	if a.Violations() == 0 {
		t.Fatalf("no violations after the window expired: %s", a.Summary())
	}
	if !strings.Contains(a.Summary(), "excused") {
		t.Fatalf("Summary hides excused breaches: %s", a.Summary())
	}
	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dtp_audit_violations_excused_total") {
		t.Fatal("excused metric not exported")
	}
}

// TestExpectDegradationFullCover: a window covering the whole run means
// zero unexcused violations — the invariant chaos campaigns assert.
func TestExpectDegradationFullCover(t *testing.T) {
	n, a, _, _ := newAudited(t, topo.Pair(), 2, Config{}, brokenConfig(),
		core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	a.ExpectDegradation(0, sim.Time(1)*sim.Second, "covers everything")
	n.Sch.Run(20 * sim.Millisecond)

	if a.ExcusedViolations() == 0 {
		t.Fatalf("broken network produced no breaches at all: %s", a.Summary())
	}
	if v := a.Violations(); v != 0 {
		t.Fatalf("%d unexcused violations inside a full-cover window: %s", v, a.Summary())
	}
}
