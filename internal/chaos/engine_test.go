package chaos

import (
	"bytes"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// stormScenario is the canned campaign from the repo's acceptance bar:
// a flap storm, a BER burst, and one crash/restart on a six-device
// chain (h0-sw1-sw2-sw3-sw4-h1).
func stormScenario() *Scenario {
	return &Scenario{
		Name:               "storm",
		SettleGrace:        D(600 * sim.Microsecond),
		ReconvergeDeadline: D(8 * sim.Millisecond),
		Faults: []Fault{
			{Kind: KindFlap, Link: []string{"sw1", "sw2"}, At: D(2 * sim.Millisecond),
				Duration: D(sim.Millisecond), MeanUp: D(200 * sim.Microsecond), MeanDown: D(100 * sim.Microsecond)},
			{Kind: KindBERBurst, Link: []string{"sw3", "sw4"}, At: D(2500 * sim.Microsecond),
				Duration: D(sim.Millisecond), BER: 1e-4},
			{Kind: KindCrash, Device: "sw2", At: D(4 * sim.Millisecond),
				Duration: D(500 * sim.Microsecond)},
		},
	}
}

// campaign holds one fully wired run: network, auditor, engine,
// telemetry.
type campaign struct {
	sch *sim.Scheduler
	net *core.Network
	aud *audit.Auditor
	eng *Engine
	reg *telemetry.Registry
	tr  *telemetry.Tracer
}

func newCampaign(t *testing.T, g topo.Graph, cfg core.Config, seed uint64, sc *Scenario) *campaign {
	t.Helper()
	sch := sim.NewScheduler()
	net, err := core.NewNetwork(sch, seed, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tr := telemetry.NewTracer(1 << 16)
	net.Instrument(reg, tr)
	aud := audit.New(net, audit.Config{})
	aud.Instrument(reg, tr)
	aud.Start()
	eng, err := NewEngine(net, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng.Instrument(reg, tr)
	eng.BindAuditor(aud)
	if err := eng.Schedule(); err != nil {
		t.Fatal(err)
	}
	return &campaign{sch: sch, net: net, aud: aud, eng: eng, reg: reg, tr: tr}
}

// run starts the network and drives the scheduler to the campaign
// deadline.
func (c *campaign) run() {
	c.net.Start()
	c.sch.Run(c.eng.Deadline())
}

// TestStormCampaignReconverges: the canned flap+BER+crash campaign
// passes Verify on several seeds — zero bound violations outside the
// declared degradation windows, full resynchronization, and an
// in-bound network by the scenario deadline.
func TestStormCampaignReconverges(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		c := newCampaign(t, topo.Chain(5), core.DefaultConfig(), seed, stormScenario())
		c.run()
		if err := c.eng.Verify(); err != nil {
			t.Errorf("seed %d: %v\n  %s\n  %s", seed, err, c.eng.Summary(), c.aud.Summary())
			continue
		}
		if got := c.tr.CountKind(telemetry.KindChaosInject); got != 3 {
			t.Errorf("seed %d: %d chaos_inject events, want 3", seed, got)
		}
		if got := c.tr.CountKind(telemetry.KindChaosClear); got != 3 {
			t.Errorf("seed %d: %d chaos_clear events, want 3", seed, got)
		}
		if c.tr.CountKind(telemetry.KindDeviceCrash) != 1 ||
			c.tr.CountKind(telemetry.KindDeviceRestart) != 1 {
			t.Errorf("seed %d: missing crash/restart trace events", seed)
		}
		// The crash partitions the chain; the restarted device rejoins
		// through INIT, so the run must observe fresh synced events after
		// the restart.
		if c.aud.TimeToSync() < 0 {
			t.Errorf("seed %d: network never converged", seed)
		}
	}
}

// TestCampaignDeterminism: the same scenario on the same seed produces
// byte-identical metrics and trace exports — the engine consumes only
// its own labeled RNG streams and perturbs nothing else.
func TestCampaignDeterminism(t *testing.T) {
	exports := func() (string, string) {
		c := newCampaign(t, topo.Chain(5), core.DefaultConfig(), 7, stormScenario())
		c.run()
		var m, tr bytes.Buffer
		if err := telemetry.WritePrometheus(&m, c.reg); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&tr, c.tr); err != nil {
			t.Fatal(err)
		}
		return m.String(), tr.String()
	}
	m1, t1 := exports()
	m2, t2 := exports()
	if m1 != m2 {
		t.Error("metrics exports differ between identical runs")
	}
	if t1 != t2 {
		t.Error("trace exports differ between identical runs")
	}
	if !strings.Contains(m1, "dtp_chaos_faults_injected_total") {
		t.Error("chaos metrics missing from export")
	}
}

// TestKitchenSinkFaults drives every remaining fault kind — grey loss,
// grey delay ramp, frequency step, temperature ramp, permanent BER
// degradation — on a short chain and requires full recovery. A port
// marked faulty stays so until its session ends (§3.2 leaves it for
// human repair). Over seeds 1..40 of this scenario 11 mark a peer
// faulty, and in 10 of them the grey loss's beacon-loss demotion voids
// the mark; seed 30's mark outlives the faults (170 unexcused
// violations), the symptom of storm seed 1147 (ROADMAP item 1).
func TestKitchenSinkFaults(t *testing.T) {
	sc := &Scenario{
		Name:               "kitchen-sink",
		SettleGrace:        D(1500 * sim.Microsecond), // covers a demotion + re-INIT
		ReconvergeDeadline: D(8 * sim.Millisecond),
		Faults: []Fault{
			{Kind: KindGreyLoss, Link: []string{"h0", "sw1"}, At: D(2 * sim.Millisecond),
				Duration: D(500 * sim.Microsecond), LossP: 0.5},
			{Kind: KindGreyDelay, Link: []string{"sw1", "h1"}, At: D(2 * sim.Millisecond),
				Duration: D(sim.Millisecond), ExtraDelay: D(50 * sim.Nanosecond), Steps: 5},
			{Kind: KindFreqStep, Device: "h0", At: D(3500 * sim.Microsecond),
				Duration: D(sim.Millisecond), PPMStep: 150}, // clamped to the oscillator's ±max
			{Kind: KindTempRamp, Device: "sw1", At: D(3500 * sim.Microsecond),
				Duration: D(sim.Millisecond), PPMStep: -60},
			{Kind: KindBERDegrade, Link: []string{"h0", "sw1"}, At: D(5 * sim.Millisecond), BER: 1e-9},
		},
	}
	c := newCampaign(t, topo.Chain(2), core.DefaultConfig(), 11, sc)
	c.run()
	if err := c.eng.Verify(); err != nil {
		t.Fatalf("%v\n  %s\n  %s", err, c.eng.Summary(), c.aud.Summary())
	}
	if got := c.tr.CountKind(telemetry.KindChaosInject); got != 5 {
		t.Errorf("%d chaos_inject events, want 5", got)
	}
	// The BER degradation is permanent: injected, never cleared.
	if got := c.tr.CountKind(telemetry.KindChaosClear); got != 4 {
		t.Errorf("%d chaos_clear events, want 4", got)
	}
	ab, ba := c.net.LinkWires(0)
	if ab.BER() != 1e-9 || ba.BER() != 1e-9 {
		t.Errorf("permanent BER degradation not in effect: %g / %g", ab.BER(), ba.BER())
	}
	// The frequency step and the grey delay must have been restored.
	h0, _ := c.net.DeviceByName("h0")
	if ppm := h0.Clock().PPM(); ppm > h0.Clock().MaxPPM() {
		t.Errorf("frequency step not restored: %v ppm", ppm)
	}
}

// liarScenario: one device lies hard — 5000-unit counter inflation
// pushed every ~2 µs through both the beacon and JOIN paths — for half
// a millisecond. Adversarial faults register no degradation windows, so
// any violation they cause is unexcused by design.
func liarScenario() *Scenario {
	return &Scenario{
		Name:               "liar",
		SettleGrace:        D(100 * sim.Microsecond),
		ReconvergeDeadline: D(5 * sim.Millisecond),
		Faults: []Fault{
			{Kind: KindLiar, Device: "h0", At: D(sim.Millisecond),
				Duration: D(500 * sim.Microsecond), JumpUnits: 5000, Cadence: D(2 * sim.Microsecond)},
		},
	}
}

// TestLiarCampaignPlainVsHardened is the acceptance demo in miniature:
// plain DTP adopts the lie and fails verification with unexcused bound
// violations, while hardened DTP rejects every inflated advance,
// quarantines the liar, and passes the same verification once the
// fault clears.
func TestLiarCampaignPlainVsHardened(t *testing.T) {
	plain := newCampaign(t, topo.Pair(), core.DefaultConfig(), 3, liarScenario())
	plain.run()
	if err := plain.eng.Verify(); err == nil {
		t.Fatalf("plain mode verified a lying device; the attack did not land\n  %s",
			plain.aud.Summary())
	}
	if plain.aud.Violations() == 0 {
		t.Error("plain mode recorded no bound violations under a liar")
	}

	cfg := core.DefaultConfig()
	cfg.Hardened = true
	hard := newCampaign(t, topo.Pair(), cfg, 3, liarScenario())
	hard.run()
	if err := hard.eng.Verify(); err != nil {
		t.Fatalf("hardened: %v\n  %s\n  %s", err, hard.eng.Summary(), hard.aud.Summary())
	}
	if v := hard.aud.Violations(); v != 0 {
		t.Errorf("hardened mode leaked %d bound violations", v)
	}
	rej, quar := hard.net.ByzantineStats()
	if rej == 0 {
		t.Error("hardened mode rejected no counter advances: admission never engaged")
	}
	if quar == 0 {
		t.Error("lying port was never quarantined")
	}
	if hard.tr.CountKind(telemetry.KindCounterRejected) == 0 {
		t.Error("no counter_rejected trace events")
	}
	if hard.tr.CountKind(telemetry.KindPortQuarantined) == 0 {
		t.Error("no port_quarantined trace events")
	}
}

// TestScheduleRejectsUnknownTargets: bad device or cable names fail
// atomically at Schedule, before any event is planted.
func TestScheduleRejectsUnknownTargets(t *testing.T) {
	cases := []Fault{
		{Kind: KindCrash, Device: "nosuch", At: D(1), Duration: D(1)},
		{Kind: KindFlap, Link: []string{"h0", "h1"}, At: D(1), Duration: D(1),
			MeanUp: D(1), MeanDown: D(1)}, // both exist but are not adjacent on a chain
		{Kind: KindBERBurst, Link: []string{"h0", "ghost"}, At: D(1), Duration: D(1), BER: 1e-4},
	}
	for i, f := range cases {
		sch := sim.NewScheduler()
		net, err := core.NewNetwork(sch, 1, topo.Chain(2), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(net, &Scenario{Name: "bad", Faults: []Fault{f}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Schedule(); err == nil {
			t.Errorf("case %d: Schedule accepted unknown target", i)
		}
	}
}

// TestVerifyBeforeDeadline: Verify refuses to pass judgment on a run
// that stopped short of the scenario deadline.
func TestVerifyBeforeDeadline(t *testing.T) {
	c := newCampaign(t, topo.Chain(5), core.DefaultConfig(), 1, stormScenario())
	c.net.Start()
	c.sch.Run(sim.Millisecond) // well before the deadline
	err := c.eng.Verify()
	if err == nil || !strings.Contains(err.Error(), "before") {
		t.Fatalf("Verify at 1ms: %v, want deadline error", err)
	}
}
