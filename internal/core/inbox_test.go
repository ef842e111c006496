package core

import (
	"fmt"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// A run must leave no arrival due in any inbox, even one whose instant
// falls after the run's last event: whatever is read after Run returns
// (the registry, a port's fields) then sees the state the scheduler's
// own evSettled events would have left.
func TestRunLeavesNoDueArrival(t *testing.T) {
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 1, topo.PaperTree(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(3 * sim.Millisecond)
	filed := InboxArrivals(n)
	for i := 0; i < 2000; i++ {
		sch.RunFor(sim.Time(1 + i%97*131)) // steps that end between events
		for _, d := range n.Devices {
			if d.inN > 0 && sch.Due(d.in[d.inHd].at, d.in[d.inHd].key) {
				t.Fatalf("step %d at %v: %s holds a due arrival", i, sch.Now(), d.Name())
			}
		}
	}
	if InboxArrivals(n) == filed {
		t.Fatal("no arrival took an inbox")
	}
}

// An OnOffset hook installed mid-run must see every sample at its
// beacon's own instant, per link direction in time order, as the
// five-event chain does: arrivals already filed when it is installed,
// and those filed after, which a rate change at once hands back to
// their events (Device.refileFlights) or the inbox keeps taking.
func TestOnOffsetInstalledMidRun(t *testing.T) {
	run := func(rateChange bool) (byPair map[string][]string, stats []string, filed uint64, held int) {
		sch := sim.NewScheduler()
		n, err := NewNetwork(sch, 1, topo.PaperTree(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		sch.Run(3 * sim.Millisecond)
		// Stop between a beacon's landing and its processing tick, so
		// arrivals are filed when the hook arrives.
		sch.RunFor(3 * sim.Nanosecond)
		filed = InboxArrivals(n)
		for _, d := range n.Devices {
			held += d.inN
		}
		byPair = map[string][]string{}
		n.OnOffset = func(rx *Port, at sim.Time, off int64) {
			byPair[rx.PairName()] = append(byPair[rx.PairName()], fmt.Sprintf("%v %d", at, off))
		}
		if rateChange {
			for _, d := range n.Devices {
				d.Clock().AdjustPPM(d.PPM() + 1)
			}
		}
		sch.RunFor(200 * sim.Microsecond)
		for _, d := range n.Devices {
			for _, p := range d.Ports() {
				sent, rx, ignored, jumps := p.Stats()
				stats = append(stats, fmt.Sprintf("%s %d %d %d %d", p.PairName(), sent, rx, ignored, jumps))
			}
		}
		return byPair, stats, InboxArrivals(n) - filed, held
	}
	for _, rateChange := range []bool{false, true} {
		fused, fusedStats, after, held := run(rateChange)
		was := SetFusedChain(false)
		chain, chainStats, _, _ := run(rateChange)
		SetFusedChain(was)
		if held == 0 {
			t.Fatal("no arrival was filed when the hook was installed")
		}
		if after == 0 {
			t.Errorf("rate change %v: no arrival took an inbox with a hook set", rateChange)
		}
		if len(fused) != len(chain) {
			t.Fatalf("rate change %v: samples on %d link directions, five-event chain %d", rateChange, len(fused), len(chain))
		}
		for pair, c := range chain {
			f := fused[pair]
			if len(f) != len(c) {
				t.Fatalf("rate change %v: %s: %d samples, five-event chain %d", rateChange, pair, len(f), len(c))
			}
			for i := range f {
				if f[i] != c[i] {
					t.Fatalf("rate change %v: %s sample %d: %q, five-event chain %q", rateChange, pair, i, f[i], c[i])
				}
			}
		}
		for i := range fusedStats {
			if fusedStats[i] != chainStats[i] {
				t.Fatalf("rate change %v: %q, five-event chain %q", rateChange, fusedStats[i], chainStats[i])
			}
		}
	}
}

// creepingPair is a hardened pair at seed 9 whose h0 lies one unit more
// every 2 µs from 2 ms until creepEnd, the overclaim of the fusion
// worlds' pair/creep/hardened without chaos's jitter: each port catches
// its peer's beacons on the windowed pull budget and is quarantined.
// Untraced (tr nil), those beacons are applied from the inboxes.
func creepingPair(t *testing.T, tr *telemetry.Tracer) (*sim.Scheduler, *Network) {
	t.Helper()
	sch := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.Hardened = true
	n, err := NewNetwork(sch, 9, topo.Pair(), cfg, WithTelemetry(nil, tr))
	if err != nil {
		t.Fatal(err)
	}
	h0 := n.Devices[0]
	for at := 2 * sim.Millisecond; at < creepEnd; at += 2 * sim.Microsecond {
		sch.At(at, func() { h0.SetLieUnits(h0.LieUnits() + 1) })
	}
	sch.At(creepEnd, func() { h0.SetLieUnits(0) })
	n.Start()
	return sch, n
}

const creepEnd = 3 * sim.Millisecond

// A beacon applied late from the inbox can quarantine its port, so every
// reader of port state or of the Byzantine totals settles first. Each
// reader alone, called by an event between a quarantining arrival's
// instant and its device's next event, must report what the five-event
// chain's evProcess has left at that instant.
func TestReadersSettleQuarantine(t *testing.T) {
	tr := telemetry.NewTracer(1 << 12)
	sch, _ := creepingPair(t, tr)
	sch.Run(creepEnd)
	var quarantines []telemetry.Event
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindPortQuarantined {
			quarantines = append(quarantines, e)
		}
	}
	if len(quarantines) == 0 {
		t.Fatal("the creep earned no quarantine")
	}
	readers := []struct {
		name string
		read func(n *Network, p *Port) any
	}{
		{"Network.LinkSynced", func(n *Network, p *Port) any { return n.LinkSynced(0) }},
		{"Network.AllSynced", func(n *Network, p *Port) any { return n.AllSynced() }},
		{"Network.ByzantineStats", func(n *Network, p *Port) any { rej, quar := n.ByzantineStats(); return [2]uint64{rej, quar} }},
		{"Port.State", func(n *Network, p *Port) any { return p.State() }},
		{"Port.OWDUnits", func(n *Network, p *Port) any { return p.OWDUnits() }},
	}
	for _, r := range readers {
		run := func(fused bool) (got []string) {
			defer SetFusedChain(SetFusedChain(fused))
			sch, n := creepingPair(t, nil)
			for _, q := range quarantines {
				p, peer := n.LinkPorts(0)
				if peer.Name() == q.Who {
					p = peer
				}
				sch.At(q.At+1, func() {
					if d := p.dev; fused && (d.inN == 0 || d.in[d.inHd].at != q.At) {
						t.Fatalf("%s at %v: its quarantining arrival is not waiting in the inbox", q.Who, q.At)
					}
					got = append(got, fmt.Sprintf("%s at %v: %v", q.Who, q.At, r.read(n, p)))
				})
			}
			sch.Run(creepEnd)
			return got
		}
		fused, chain := run(true), run(false)
		for i := range chain {
			if fused[i] != chain[i] {
				t.Errorf("%s read %s, five-event chain %s", r.name, fused[i], chain[i])
			}
		}
	}
}

// A beacon applied late, past the instant at which the windowed pull
// budget grows by a unit (elapsed>>12), must be admitted or rejected as
// at its own instant: admission reads the tick clock at the arrival's
// instant, not at the settle.
func TestLateBeaconAdmittedOnTime(t *testing.T) {
	sch, n := creepingPair(t, nil)
	sch.Run(creepEnd / 2)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}
	p, _ := n.LinkPorts(0)
	clk := p.dev.clock
	// The settle is now, tick N; the arrival two ticks before. The window
	// opened so that the budget's ppm term reads 0 units at the arrival
	// and 1 at the settle, with the slack spent: a one-unit lead is
	// rejected on time and would pass at the settle.
	tick := clk.Counter()
	at := clk.TimeOfCount(tick - 2)
	perStep := (1<<12 + p.cfg().UnitsPerTick - 1) / p.cfg().UnitsPerTick
	local := p.dev.GlobalCounter()
	arm := func() {
		p.admitValid, p.pullWindow, p.pulledUnits, p.rejectCount = true, tick-perStep, p.admitSlack(), 0
	}
	arm()
	if !p.admitTarget(local+1, local, false, sch.Now()) {
		t.Fatal("the lead is not admissible at the settle: the test does not straddle a budget step")
	}
	arm()
	if p.admitTarget(local+1, local, false, at) {
		t.Fatalf("a lead over the budget at its instant %v was admitted on the budget at the settle %v", at, sch.Now())
	}
	if p.pulledUnits != p.admitSlack() {
		t.Fatalf("a rejected lead was charged: %d pulled units, want %d", p.pulledUnits, p.admitSlack())
	}
}

// A hardened arrival applied late can quarantine its port, whose
// release is due a cooldown after the arrival's instant; so where the
// port's beacons, which bound the settle, are spaced a cooldown or more
// apart — by the beacon interval, or by a loaded link's gate installed
// mid-run — its arrivals stay events. In each run h1 rejects h0's
// 30-unit overclaim on the admission slack (the guard is widened to let
// it through) until it quarantines h0, with no other event on h1 before
// its next beacon; everything the run leaves must match the five-event
// chain.
//
// The gate changes between runs, as System.SetUniformLoad does, while an
// arrival waits in h1's inbox, its flight ahead of its landing or past
// it; the change empties the inbox. A rate change on h1 just after it
// hands the flights still ahead of their landing back to the wire's
// owner, and each must land once.
func TestWideBeaconSpacingQuarantinesOnTime(t *testing.T) {
	const lieEnd = 12 * sim.Millisecond
	// A slot every 90 000 blocks: inside the beacon-loss watchdog of a
	// 2000-tick interval, so the port stays synced between beacons.
	wide := NewSaturatedGate(720_000)
	cases := []struct {
		name         string
		interval     uint64
		gate, landed bool
	}{
		{"interval=100000", 100_000, false, false},
		{"gate/in-flight", 2000, true, false},
		{"gate/landed", 2000, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// run stops for the gate change at stop or, when stop is 0,
			// at the first nanosecond with the arrival waiting as the
			// case asks, and reports where it stopped.
			run := func(fused bool, stop sim.Time) (got []string, stopped sim.Time) {
				defer SetFusedChain(SetFusedChain(fused))
				sch := sim.NewScheduler()
				cfg := DefaultConfig()
				cfg.Hardened, cfg.BeaconIntervalTicks, cfg.GuardUnits = true, c.interval, 64
				n, err := NewNetwork(sch, 9, topo.Pair(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				n.OnOffset = func(rx *Port, at sim.Time, off int64) {
					got = append(got, fmt.Sprintf("%s %v %d", rx.Name(), at, off))
				}
				h0, h1 := n.Devices[0], n.Devices[1]
				sch.At(2*sim.Millisecond, func() { h0.SetLieUnits(30) })
				sch.At(lieEnd, func() { h0.SetLieUnits(0) })
				n.Start()
				if c.gate {
					waiting := func() bool {
						return h1.inN > 0 && (h1.in[h1.inHd].key.From < sch.Now()) == c.landed
					}
					if sch.Run(1500 * sim.Microsecond); stop > 0 {
						sch.Run(stop)
					}
					for stop == 0 && !waiting() {
						sch.RunFor(sim.Nanosecond)
					}
					stopped = sch.Now()
					n.SetGateAll(func(*Port) TxGate { return wide })
					if h1.inN != 0 {
						t.Fatalf("h1 still holds %d arrivals after the gate change", h1.inN)
					}
					h1.Clock().AdjustPPM(h1.PPM() + 1)
				}
				sch.Run(lieEnd + 8*sim.Millisecond)
				for _, d := range n.Devices {
					for _, p := range d.Ports() {
						sent, rx, ignored, jumps := p.Stats()
						got = append(got, fmt.Sprintf("%s counter=%d %s owd=%d beacons=%d/%d/%d/%d",
							p.Name(), d.GlobalCounter(), p.State(), p.OWDUnits(), sent, rx, ignored, jumps))
					}
				}
				rej, quar := n.ByzantineStats()
				if quar == 0 {
					t.Fatalf("%d rejections earned no quarantine", rej)
				}
				return append(got, fmt.Sprintf("byzantine %d %d", rej, quar)), stopped
			}
			fused, stopped := run(true, 0)
			chain, _ := run(false, stopped)
			if len(fused) != len(chain) {
				t.Fatalf("%d lines, five-event chain %d", len(fused), len(chain))
			}
			for i := range chain {
				if fused[i] != chain[i] {
					t.Fatalf("line %d: %q, five-event chain %q", i, fused[i], chain[i])
				}
			}
		})
	}
}
