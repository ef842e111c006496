package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// instrumentedHardenedPair is instrumentedPair with Hardened enabled.
func instrumentedHardenedPair(t *testing.T, seed uint64) (*sim.Scheduler, *Network, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	sch := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.Hardened = true
	n, err := NewNetwork(sch, seed, topo.Pair(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tr := telemetry.NewTracer(1 << 14)
	n.Instrument(reg, tr)
	return sch, n, reg, tr
}

// TestAdmitBudgetRule pins the pull-budget inequality, including the
// boundaries where an off-by-one would either leak an attack or reject
// an honest peer.
func TestAdmitBudgetRule(t *testing.T) {
	const slack = 16
	cases := []struct {
		name            string
		pulled, elapsed int64
		ok              bool
	}{
		{"zero pull", 0, 0, true},
		{"at slack, no time elapsed", slack, 0, true},
		{"one past slack, no time elapsed", slack + 1, 0, false},
		{"ppm budget accrues", slack + (1 << 20 >> 12), 1 << 20, true},
		{"one past accrued budget", slack + (1 << 20 >> 12) + 1, 1 << 20, false},
		{"negative elapsed clamps to slack", slack, -50, true},
		{"negative elapsed still rejects", slack + 1, -50, false},
		// 2^53 is where float64 loses integer precision; the rule is
		// all-integer so the boundary must stay exact.
		{"exact at 2^53 elapsed", slack + (1 << 53 >> 12), 1 << 53, true},
		{"one past at 2^53 elapsed", slack + (1 << 53 >> 12) + 1, 1 << 53, false},
	}
	for _, c := range cases {
		if ok, _ := admitBudget(c.pulled, c.elapsed, slack); ok != c.ok {
			t.Errorf("%s: admitBudget(%d, %d, %d) = %v, want %v",
				c.name, c.pulled, c.elapsed, slack, ok, c.ok)
		}
	}
}

// TestAdmitTargetCounterWraparound: admission leads are mod-2^64
// differences, so an honest session whose counters cross 2^64 (or the
// float64-precision boundary 2^53) must not be rejected, while a lying
// jump right at the wrap must still be caught.
func TestAdmitTargetCounterWraparound(t *testing.T) {
	sch, n, _, _ := instrumentedHardenedPair(t, 11)
	n.Start()
	sch.Run(2 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}
	p, _ := n.LinkPorts(0)
	rejections := func() uint64 { rej, _ := n.ByzantineStats(); return rej }

	for _, boundary := range []uint64{1<<64 - 500, 1<<53 - 500} {
		// A live session observing an honest peer whose implied counter
		// tracks the local one tick for tick straight across the
		// boundary: every value must be admitted and none may count as
		// a pull (lead stays zero through the wrap).
		p.admitValid = true
		p.pullWindow = p.dev.clock.Counter()
		p.pulledUnits = 0
		before := rejections()
		for step := uint64(0); step <= 2000; step += 100 {
			target := boundary + step
			if !p.admitTarget(target, target, false) {
				t.Fatalf("boundary %#x: honest value at +%d rejected", boundary, step)
			}
			p.noteTarget(target, target)
		}
		if got := rejections(); got != before {
			t.Fatalf("boundary %#x: honest crossing recorded %d rejections", boundary, got-before)
		}
		if p.pulledUnits != 0 {
			t.Fatalf("boundary %#x: zero-lead stream charged %d pull units", boundary, p.pulledUnits)
		}

		// A small forward lead across the wrap is honest noise and must
		// pass the per-message cap exactly like far from the boundary.
		if !p.admitTarget(boundary+2003, boundary+2000, false) {
			t.Fatalf("boundary %#x: +3 lead across the wrap rejected", boundary)
		}
		if p.pulledUnits != 3 {
			t.Fatalf("boundary %#x: +3 lead charged %d pull units", boundary, p.pulledUnits)
		}

		// A lying jump exactly at the wrap must still be rejected: the
		// remote claims 1e6 units the local clock never saw.
		if p.admitTarget(boundary+2000+1_000_000, boundary+2000, true) {
			t.Fatalf("boundary %#x: inflated jump admitted across the wrap", boundary)
		}
		// Reset the rejection window so the loop's rejections never
		// accumulate into a quarantine and change port state.
		p.rejectCount = 0
	}
}

// TestAdmitTargetCatchesCompliantRatchet: an attacker whose every
// message stays under the per-message slack — counting on the local
// counter adopting each lie so the next one measures small again — must
// still exhaust the windowed pull budget, because the budget is
// measured on the free-running oscillator, not the poisoned counter.
func TestAdmitTargetCatchesCompliantRatchet(t *testing.T) {
	sch, n, _, _ := instrumentedHardenedPair(t, 13)
	n.Start()
	sch.Run(2 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}
	p, _ := n.LinkPorts(0)
	slack := p.admitSlack()

	p.admitValid = true
	p.pullWindow = p.dev.clock.Counter()
	p.pulledUnits = 0
	local := p.dev.GlobalCounter()
	admitted := 0
	for i := 0; i < 64; i++ {
		// Each lie leads by exactly the slack and is "adopted": the next
		// one measures against the freshly poisoned counter.
		if !p.admitTarget(local+uint64(slack), local, false) {
			break
		}
		admitted++
		local += uint64(slack)
	}
	if admitted >= 64 {
		t.Fatal("compliant ratchet never rejected: pull budget is not engaging")
	}
	if pulled := int64(admitted) * slack; pulled > slack+1 {
		// With no simulated time passing, the whole window budget is
		// just the slack: the ratchet must die on its second step.
		t.Fatalf("ratchet pulled %d units before rejection, budget is ~%d", pulled, slack)
	}
}

// TestQuarantineLifecycle drives the full defensive arc on a live pair:
// a lying peer's BEACON-JOINs are rejected, the fourth rejection
// quarantines the port (dropping it from the synced set), and after the
// cooldown the re-INIT escape hatch readmits the now-honest peer.
func TestQuarantineLifecycle(t *testing.T) {
	sch, n, _, tr := instrumentedHardenedPair(t, 12)
	n.Start()
	sch.Run(2 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}
	if _, quarStartup := n.ByzantineStats(); quarStartup != 0 {
		t.Fatalf("%d quarantines during honest startup", quarStartup)
	}
	liar, err := n.DeviceByName("h0")
	if err != nil {
		t.Fatal(err)
	}

	liar.SetLieUnits(50_000)
	limit := quarantineRejectLimit
	for i := 0; i < limit; i++ {
		liar.BroadcastJoin()
		sch.RunFor(10 * sim.Microsecond)
	}
	rejected, quarantined := n.ByzantineStats()
	if rejected < uint64(limit) {
		t.Fatalf("%d rejections after %d lying JOINs, want >= %d", rejected, limit, limit)
	}
	if quarantined != 1 {
		t.Fatalf("%d quarantines, want exactly 1", quarantined)
	}
	if n.LinkSynced(0) {
		t.Fatal("link still reports synced with one side quarantined")
	}
	if !n.LinkQuarantined(0) {
		t.Fatal("LinkQuarantined(0) = false after quarantine")
	}
	if got := tr.CountKind(telemetry.KindPortQuarantined); got != 1 {
		t.Fatalf("%d KindPortQuarantined events, want 1", got)
	}

	// The peer turns honest; the cooldown expires, the port demotes to
	// INIT, re-measures, and the pair is whole again.
	liar.SetLieUnits(0)
	sch.RunFor(5 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not resynchronize after quarantine cooldown")
	}
	if n.LinkQuarantined(0) {
		t.Fatal("link still quarantined after cooldown release")
	}
	if _, quarAfter := n.ByzantineStats(); quarAfter != 1 {
		t.Fatalf("quarantine count changed to %d after honest rejoin", quarAfter)
	}

	// The quarantine ended the session, so the faulty verdict the lying
	// beacons earned just before it must not outlive it: a port that
	// rejoins still deaf reports SYNCED and follows nothing.
	ignored := func(p *Port) uint64 { _, _, ign, _ := p.Stats(); return ign }
	a, b := n.LinkPorts(0)
	before := [2]uint64{ignored(a), ignored(b)}
	sch.RunFor(sim.Millisecond)
	for i, p := range []*Port{a, b} {
		if p.Faulty() {
			t.Errorf("%s still holds its peer faulty after the honest rejoin", p.Name())
		}
		if got := ignored(p) - before[i]; got != 0 {
			t.Errorf("%s ignored %d beacons of its honest peer in 1 ms after rejoining", p.Name(), got)
		}
	}
}

// TestQuarantineCooldownInsideSlack pins the sizing rule between the
// hardened-mode constants (DESIGN.md "Model constants"): a quarantined
// honest peer free-runs at up to 2·ppmRange against the fabric, and that
// drift across one cooldown must fit the admission slack or the peer
// would fail its first post-cooldown admission.
func TestQuarantineCooldownInsideSlack(t *testing.T) {
	if drift := quarantineCooldownTicks * 2 * ppmRange * 1e-6; drift > admitSlackUnits {
		t.Fatalf("free-run drift over one quarantine %.1f units > admission slack %d", drift, admitSlackUnits)
	}
}
