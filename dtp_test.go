package dtp

import (
	"strings"
	"testing"
	"time"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
)

func newSynced(t *testing.T, topo Topology, opts ...Option) *System {
	t.Helper()
	sys, err := New(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(7),
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	sys.Run(100 * time.Millisecond)
	if got := sys.MaxOffsetNanos(); got > 25.6 {
		t.Fatalf("pair offset %.1f ns, bound 25.6", got)
	}
	if sys.BoundNanos() != 25.6 {
		t.Fatalf("bound %.1f ns", sys.BoundNanos())
	}
	if sys.TickNanos() != 6.4 {
		t.Fatalf("tick %.2f ns", sys.TickNanos())
	}
	if sys.Now() < 100*time.Millisecond {
		t.Fatal("Now() did not advance")
	}
}

func TestPaperTreeWithinBound(t *testing.T) {
	sys := newSynced(t, PaperTree(), WithSeed(3))
	var worst int64
	for i := 0; i < 200; i++ {
		sys.Run(time.Millisecond)
		if o := sys.MaxOffsetTicks(); o > worst {
			worst = o
		}
	}
	if worst > sys.BoundTicks() {
		t.Fatalf("offset %d ticks > bound %d", worst, sys.BoundTicks())
	}
}

func TestOffsetBetweenAndCounter(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(5))
	sys.Run(10 * time.Millisecond)
	c, err := sys.Counter("h0")
	if err != nil || c == 0 {
		t.Fatalf("counter: %d, %v", c, err)
	}
	off, err := sys.OffsetTicks("h0", "h1")
	if err != nil {
		t.Fatal(err)
	}
	if off > 4 || off < -4 {
		t.Fatalf("offset %d", off)
	}
	if _, err := sys.OffsetTicks("h0", "zz"); err == nil {
		t.Fatal("phantom device accepted")
	}
	if _, err := sys.Counter("zz"); err == nil {
		t.Fatal("phantom counter accepted")
	}
}

func TestLoadDoesNotBreakBound(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(9),
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	sys.SetUniformLoad(1522)
	var worst int64
	for i := 0; i < 100; i++ {
		sys.Run(time.Millisecond)
		if o := sys.MaxOffsetTicks(); o > worst {
			worst = o
		}
	}
	if worst > 4 {
		t.Fatalf("offset under load %d ticks", worst)
	}
	sys.ClearLoad()
	sys.Run(10 * time.Millisecond)
}

func TestPartitionAndHeal(t *testing.T) {
	sys := newSynced(t, PaperTree(), WithSeed(11))
	if err := sys.CutLink("s0", "s3"); err != nil {
		t.Fatal(err)
	}
	sys.Run(300 * time.Millisecond)
	off, _ := sys.OffsetTicks("s0", "s3")
	if off < 0 {
		off = -off
	}
	if off <= 4 {
		t.Fatalf("no drift during partition (%d ticks)", off)
	}
	if err := sys.RestoreLink("s0", "s3"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunUntilSynced(time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Millisecond)
	if o := sys.MaxOffsetTicks(); o > sys.BoundTicks() {
		t.Fatalf("offset %d after heal, bound %d", o, sys.BoundTicks())
	}
	if err := sys.CutLink("s0", "zz"); err == nil {
		t.Fatal("phantom link cut accepted")
	}
	if err := sys.CutLink("s4", "s7"); err == nil {
		t.Fatal("non-adjacent link cut accepted")
	}
	if err := sys.RestoreLink("s4", "s7"); err == nil {
		t.Fatal("non-adjacent restore accepted")
	}
}

func TestOffsetSamples(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(13))
	n := 0
	var worst int64
	sys.OnOffsetSample(func(pair string, off int64) {
		n++
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
		if pair != "h0-h1" && pair != "h1-h0" {
			t.Errorf("unexpected pair %q", pair)
		}
	})
	sys.Run(10 * time.Millisecond)
	if n == 0 {
		t.Fatal("no samples")
	}
	if worst > 4 {
		t.Fatalf("sample %d ticks", worst)
	}
}

func TestMeasuredOWD(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(15))
	d, err := sys.MeasuredOWDTicks("h0", "h1")
	if err != nil {
		t.Fatal(err)
	}
	if d < 41 || d > 45 {
		t.Fatalf("measured OWD %d ticks, paper range 43-45 (minus alpha bias)", d)
	}
}

func TestDaemonOnFacade(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(17))
	d, err := sys.Daemon(DaemonOptions{Host: "h0", CalInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(500 * time.Millisecond)
	if d.Counter() == 0 {
		t.Fatal("daemon never calibrated")
	}
	off := d.OffsetTicks()
	if off < -20 || off > 20 {
		t.Fatalf("daemon offset %.1f ticks", off)
	}
	if _, err := sys.Daemon(DaemonOptions{Host: "zz"}); err == nil {
		t.Fatal("phantom daemon host accepted")
	}
}

func TestSpeedOption(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(19), WithSpeed(phy.Speed100G),
		WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	if sys.TickNanos() != 0.32 {
		t.Fatalf("100G tick %.3f ns, want 0.32 (base units)", sys.TickNanos())
	}
	sys.Run(50 * time.Millisecond)
	// Bound: 4 periods of 0.64 ns = 2.56 ns = 8 base units per hop.
	if got := sys.MaxOffsetNanos(); got > 2.56 {
		t.Fatalf("100G pair offset %.2f ns, bound 2.56", got)
	}

	// 1 GbE's 8b/10b line code has no 56-bit idle block (§7), so the
	// option must turn the fragment encoding on: four blocks per message,
	// event for event what the same core.Config with FragmentedMessages
	// dispatches.
	oneG, err := New(Pair(), WithSeed(19), WithSpeed(Speed1G))
	if err != nil {
		t.Fatal(err)
	}
	oneG.Start()
	oneG.Run(10 * time.Millisecond)
	cfg := oneG.net.Config()
	cfg.FragmentedMessages = true
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, 19, Pair(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if got, want := oneG.EventsProcessed(), sch.Processed(); got != want {
		t.Fatalf("WithSpeed(Speed1G) dispatched %d events in 10 sim-ms, the fragment encoding dispatches %d", got, want)
	}
}

func TestWanderAndParityAndBEROptions(t *testing.T) {
	sys := newSynced(t, Pair(), WithSeed(21),
		WithWander(10*time.Millisecond, 100),
		WithParity(),
		WithBER(1e-6))
	var worst int64
	for i := 0; i < 100; i++ {
		sys.Run(time.Millisecond)
		if o := sys.MaxOffsetTicks(); o > worst {
			worst = o
		}
	}
	if worst > 4 {
		t.Fatalf("offset %d ticks with wander+parity+BER", worst)
	}
}

func TestMasterOption(t *testing.T) {
	// With a slow master, the whole network must run at the master's
	// rate instead of the fastest oscillator's.
	sys := newSynced(t, Chain(2), WithSeed(27), WithMaster("h0"),
		WithPPM(map[string]float64{"h0": -100, "sw1": 100, "h1": 100}))
	c0, _ := sys.Counter("h1")
	sys.Run(time.Second)
	c1, _ := sys.Counter("h1")
	rate := float64(c1 - c0)
	masterRate := 156.25e6 * (1 - 100e-6)
	if rate > masterRate*1.00001 || rate < masterRate*0.99999 {
		t.Fatalf("network rate %.0f, want master's %.0f", rate, masterRate)
	}
	if _, err := New(Pair(), WithMaster("nope")); err == nil {
		t.Fatal("phantom master accepted")
	}
}

func TestMixedSpeedsOption(t *testing.T) {
	sys, err := New(Chain(3),
		WithSeed(23),
		WithMixedSpeeds(LinkSpeed{A: "sw1", B: "sw2", Speed: Speed40G}))
	if err != nil {
		t.Fatal(err)
	}
	if sys.TickNanos() != 0.32 {
		t.Fatalf("mixed tick %.3f ns, want 0.32 (base units)", sys.TickNanos())
	}
	// Per-hop bound: 4 cycles of 10G (80) + 4 of 40G (20) + 80 units.
	bound := sys.BoundTicks()
	if bound != 180 {
		t.Fatalf("mixed-speed bound %d base units, want 180", bound)
	}
	aud := sys.Audit(AuditOptions{})
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		t.Fatal(err)
	}
	var worst int64
	for i := 0; i < 100; i++ {
		sys.Run(time.Millisecond)
		off, _ := sys.OffsetTicks("h0", "h1")
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
	}
	if worst > bound {
		t.Fatalf("mixed-speed offset %d base units, bound %d", worst, bound)
	}
	if got := aud.LiveBoundUnits("h0"); got != bound {
		t.Fatalf("auditor charges h0 %d units, System.BoundTicks says %d", got, bound)
	}
}

// TestMixedSpeedsOptionOrder: WithMixedSpeeds changes the clocking and
// nothing else, so the options around it land in the same core.Config
// whichever side of it they stand.
func TestMixedSpeedsOptionOrder(t *testing.T) {
	mixed := WithMixedSpeeds(LinkSpeed{A: "sw1", B: "sw2", Speed: Speed40G})
	others := []Option{WithHardened(), WithMaster("h0"), WithBER(1e-9)}
	build := func(opts ...Option) core.Config {
		t.Helper()
		sys, err := New(Chain(3), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sys.net.Config()
	}
	before := build(append(append([]Option{}, others...), mixed)...)
	after := build(append([]Option{mixed}, others...)...)
	if before != after {
		t.Fatalf("option order changed the network:\nothers first: %+v\nmixed first:  %+v", before, after)
	}
	if !after.Hardened || !after.FollowMaster || after.Master != "h0" || after.BER != 1e-9 {
		t.Fatalf("options lost beside WithMixedSpeeds: %+v", after)
	}
}

func TestMixedSpeedsRejectsUnknownLink(t *testing.T) {
	if _, err := New(Chain(2), WithMixedSpeeds(LinkSpeed{A: "h0", B: "nope", Speed: Speed40G})); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := New(Chain(2), WithMixedSpeeds(LinkSpeed{A: "h0", B: "h1", Speed: Speed40G})); err == nil {
		t.Fatal("non-adjacent pair accepted")
	}
}

func TestGraphAndDevices(t *testing.T) {
	sys, err := New(FatTree(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Devices()) != len(sys.Graph().Nodes) {
		t.Fatal("device list mismatch")
	}
	g := sys.Graph()
	if got := g.HostDiameter(); got != 6 {
		t.Fatalf("fat-tree diameter %d", got)
	}
	sysC, err := New(Chain(3))
	if err != nil || len(sysC.Devices()) != 4 {
		t.Fatal("chain build")
	}
	sysS, err := New(Star(4))
	if err != nil || len(sysS.Devices()) != 6 {
		t.Fatal("star build")
	}
}

func TestRunUntilSyncedTimesOut(t *testing.T) {
	sys, err := New(Pair())
	if err != nil {
		t.Fatal(err)
	}
	// Never started: cannot sync.
	if err := sys.RunUntilSynced(10 * time.Millisecond); err == nil {
		t.Fatal("expected timeout")
	}
}

func TestWithCoreConfigValidation(t *testing.T) {
	bad := Option(func(c *config) { c.cfg.BeaconIntervalTicks = 0 })
	if _, err := New(Pair(), bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestParseTopologyValidation: CLI topology specs with bad sizes come
// back as errors, never as builder panics.
func TestParseTopologyValidation(t *testing.T) {
	good := []string{"pair", "tree", "star", "star:3", "chain", "chain:6", "fattree", "fattree:6"}
	for _, spec := range good {
		if _, err := ParseTopology(spec); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	bad := []string{"chain:0", "chain:-1", "star:0", "star:-2", "fattree:3",
		"fattree:0", "fattree:-4", "ring", "chain:x", "pair:3", "tree:7", "tree:x"}
	for _, spec := range bad {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("%s: accepted, want error", spec)
		}
	}
}

// TestRunUntilSyncedClamp: the sync wait never steps past its deadline
// — the final RunFor is clamped to the remaining budget — and a timeout
// reports the actual simulated time spent, not the requested maximum
// rounded up to a whole step.
func TestRunUntilSyncedClamp(t *testing.T) {
	sys, err := New(Pair())
	if err != nil {
		t.Fatal(err)
	}
	// Never started: cannot sync, so the full budget elapses. The odd
	// fraction of a millisecond would have been overshot by the old
	// fixed 1 ms stepping.
	max := 10*time.Millisecond + 300*time.Microsecond
	err = sys.RunUntilSynced(max)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if got := sys.Now(); got != max {
		t.Fatalf("scheduler ran %v, budget %v (overshoot)", got, max)
	}
	if !strings.Contains(err.Error(), max.String()) {
		t.Fatalf("error %q does not report the elapsed %v", err, max)
	}
}

// TestOptionStructLifecycle: the option-struct constructors (Audit,
// Daemon, Chaos) mirror the deprecated wrappers, and Close stops what
// they started — idempotently.
func TestOptionStructLifecycle(t *testing.T) {
	sys, err := New(Pair(), WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	aud := sys.Audit(AuditOptions{Interval: 50 * time.Microsecond})
	d, err := sys.Daemon(DaemonOptions{Host: "h0", CalInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Run(100 * time.Millisecond)
	if aud.Checks() == 0 {
		t.Fatal("auditor never checked")
	}
	if aud.Violations() != 0 {
		t.Fatalf("%d violations on a healthy pair", aud.Violations())
	}
	if d.Counter() == 0 {
		t.Fatal("daemon never calibrated")
	}
	if _, err := sys.Daemon(DaemonOptions{Host: "zz"}); err == nil {
		t.Fatal("phantom daemon host accepted")
	}
	if _, err := sys.Chaos(ChaosOptions{}); err == nil {
		t.Fatal("ChaosOptions without a Scenario accepted")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A closed System stops auditing: advancing time adds no checks.
	n := aud.Checks()
	sys.Run(10 * time.Millisecond)
	if got := aud.Checks(); got != n {
		t.Fatalf("auditor still running after Close (%d -> %d checks)", n, got)
	}
}

// TestChaosOnFacade: the storm campaign runs through the public API —
// scenario from JSON, Chaos bound to an auditor, Verify past the
// deadline — and the chaos metrics appear in the registry export.
func TestChaosOnFacade(t *testing.T) {
	sc, err := LoadChaosScenario("examples/chaos/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	tr := NewTracer(1 << 16)
	topo, err := ParseTopology("chain:5")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(topo, WithSeed(5), WithTelemetry(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	aud := sys.Audit(AuditOptions{})
	eng, err := sys.Chaos(ChaosOptions{Scenario: sc, Auditor: aud})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunUntil(eng.Deadline())
	if err := eng.Verify(); err != nil {
		t.Fatalf("%v\n  %s\n  %s", err, eng.Summary(), aud.Summary())
	}
	var b strings.Builder
	if err := WriteMetrics(&b, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dtp_chaos_faults_injected_total{kind="crash"} 1`,
		`dtp_chaos_faults_cleared_total{kind="flap"} 1`,
		"dtp_chaos_active_faults 0",
		"dtp_device_crashes_total 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics export missing %q", want)
		}
	}

	// A scenario naming a device outside this topology fails Chaos.
	badSc := &ChaosScenario{Name: "bad", Faults: []ChaosFault{
		{Kind: "crash", Device: "nosuch", Duration: ChaosD(time.Millisecond)},
	}}
	if _, err := sys.Chaos(ChaosOptions{Scenario: badSc}); err == nil {
		t.Fatal("Chaos accepted an unknown device")
	}
}
