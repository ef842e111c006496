package core_test

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// budgetWindow is a steady stretch of a run: every world is synced well
// before it starts.
const (
	budgetFrom   = 3 * sim.Millisecond
	budgetLength = sim.Millisecond
)

// budget is what one world costs in the budget window.
type budget struct {
	events, beacons uint64
	inboxed         uint64         // settled arrivals filed in a device inbox
	queue           sim.QueueStats // lane counts and overflows over the window
	// sweeps and pairChecks count the auditor's rounds and pair
	// comparisons, when one is attached.
	sweeps, pairChecks uint64
}

// budgetWorld is one run the budget measures: g at seed 1, with the
// default config and wander (1 ms steps of 100 ppb).
type budgetWorld struct {
	g topo.Graph
	// chain runs the five-event chain instead of link flights.
	chain bool
	// traced attaches a tracer, which keeps every settled beacon an
	// evSettled event.
	traced bool
	// audited attaches the online auditor at its default cadence.
	audited bool
	// hooked sets an OnOffset hook that keeps nothing.
	hooked bool
	// master roots the tree at s0 in master mode (§5.4).
	master bool
	// hardened turns on Byzantine-hardened admission.
	hardened bool
	// speeds, when set, runs MixedSpeedConfig WithLinkSpeeds (§7).
	speeds map[int]phy.Speed
}

// budgetRun counts the scheduler events, the beacons sent and the
// queue's filing in the budget window of w.
func budgetRun(t *testing.T, w budgetWorld) budget {
	t.Helper()
	defer core.SetFusedChain(core.SetFusedChain(!w.chain))
	cfg := core.DefaultConfig()
	var opts []core.Option
	if w.speeds != nil {
		cfg = core.MixedSpeedConfig()
		opts = append(opts, core.WithLinkSpeeds(w.speeds))
	}
	cfg.WanderInterval, cfg.WanderStepPPB = sim.Millisecond, 100
	if w.master {
		cfg.Master = "s0"
	}
	cfg.Hardened = w.hardened
	sch := sim.NewScheduler()
	if w.traced {
		opts = append(opts, core.WithTelemetry(nil, telemetry.NewTracer(0)))
	}
	n, err := core.NewNetwork(sch, 1, w.g, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if w.hooked {
		n.OnOffset = func(*core.Port, sim.Time, int64) {}
	}
	var aud *audit.Auditor
	if w.audited {
		aud = audit.New(n, audit.Config{}, nil, nil)
	}
	n.Start()
	sch.Run(budgetFrom)
	if !n.AllSynced() {
		t.Fatal("not synced when the budget window opens")
	}
	snap := func() (b budget) {
		b.events, b.queue, b.inboxed = sch.Processed(), sch.QueueStats(), core.InboxArrivals(n)
		for _, d := range n.Devices {
			for _, p := range d.Ports() {
				sent, _, _, _ := p.Stats()
				b.beacons += sent
			}
		}
		if aud != nil {
			b.sweeps, b.pairChecks = aud.Checks(), aud.PairChecks()
		}
		return b
	}
	b0 := snap()
	sch.RunFor(budgetLength)
	b := snap()
	b.events -= b0.events
	b.beacons -= b0.beacons
	b.inboxed -= b0.inboxed
	b.sweeps -= b0.sweeps
	b.pairChecks -= b0.pairChecks
	b.queue.LaneOverflows -= b0.queue.LaneOverflows
	for l := range b.queue.ByLane {
		b.queue.ByLane[l] -= b0.queue.ByLane[l]
	}
	return b
}

// allocsPerSimMs is the steady-state allocation rate of a synced paper
// tree without wander, whose re-arming closure allocates by design.
func allocsPerSimMs(t *testing.T) float64 {
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, 1, topo.PaperTree(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(budgetFrom)
	return testing.AllocsPerRun(3, func() { sch.RunFor(sim.Millisecond) })
}

// TestEngineBudget pins what the engine costs in units that do not
// depend on the machine: scheduler events per simulated millisecond,
// per beacon and per beacon by lane (the port's opcode & 7; lanes 1-3
// carry the five-event chain of flights re-filed by wander steps, 4 the
// process events a crossing schedules, 7 the landings and any settled
// process event the inbox does not take), settled beacons applied from
// a device inbox instead, actor events the FIFO lanes refuse to the
// heap, the auditor's pair checks per sweep, allocations, and the size
// of the structures a beacon touches. Untraced, settled beacons take the
// inbox: a beacon costs its timer event alone, the one in sixteen that
// lands in the metastability band included (its draw is taken at
// launch), and lanes 4 and 7 carry only the landings a wander step hands
// back. Traced, every settled beacon is an evSettled event on lane 7, the
// path dtpd and every exporting dtpsim run take: the traced paper-tree
// rows pin it. An OnOffset hook, master mode, hardened mode and multi-tick
// port cycles take the inbox like a plain run: the hooked, master-mode
// and hardened rows match the paper tree's (traced, the hardened tree
// matches the traced one), and mixed-speed chain:3 files every settled
// beacon but those of its 1 GbE link, whose fragments never settle. Every entry is an equality unless marked as a ceiling. A change that moves one edits the table and says why; a
// one-event change to the beacon path moves every event count and the
// row of the lane the event takes.
func TestEngineBudget(t *testing.T) {
	paper := topo.PaperTree()
	pair := budgetRun(t, budgetWorld{g: topo.Pair()})
	tree := budgetRun(t, budgetWorld{g: paper})
	traced := budgetRun(t, budgetWorld{g: paper, traced: true})
	hooked := budgetRun(t, budgetWorld{g: paper, hooked: true})
	master := budgetRun(t, budgetWorld{g: paper, master: true})
	hardened := budgetRun(t, budgetWorld{g: paper, hardened: true})
	tracedHardened := budgetRun(t, budgetWorld{g: paper, traced: true, hardened: true})
	mixed := budgetRun(t, budgetWorld{g: topo.Chain(3), speeds: mixedSpeeds})
	ft4 := budgetRun(t, budgetWorld{g: topo.FatTree(4)})
	// The five-event chain, the reference flights are tested against.
	chain := budgetRun(t, budgetWorld{g: paper, chain: true})
	audited := budgetRun(t, budgetWorld{g: topo.FatTree(4), audited: true})
	perBeacon := func(events, beacons uint64) float64 {
		return float64((events*10_000 + beacons/2) / beacons) // x1e4, rounded
	}
	lane := func(b budget, l int) float64 { return perBeacon(b.queue.ByLane[l], b.beacons) }
	slots, _ := reflect.TypeOf(sim.Scheduler{}).FieldByName("slots")
	for _, row := range []struct {
		name      string
		got, want float64
		ceiling   bool
	}{
		{"events per sim-ms, pair", float64(pair.events), 1598, false},
		{"events per sim-ms, paper tree", float64(tree.events), 17564, false},
		{"events per sim-ms, fattree:4", float64(ft4.events), 76602, false},
		{"lane overflows to the heap per sim-ms, pair", float64(pair.queue.LaneOverflows), 0, false},
		{"lane overflows to the heap per sim-ms, paper tree", float64(tree.queue.LaneOverflows), 0, false},
		{"lane overflows to the heap per sim-ms, fattree:4", float64(ft4.queue.LaneOverflows), 15, false},
		{"beacons sent per sim-ms, paper tree", float64(tree.beacons), 17189, false},
		{"events per beacon x1e4, paper tree", perBeacon(tree.events, tree.beacons), 10218, false},
		{"events per beacon x1e4, five-event chain", perBeacon(chain.events, chain.beacons), 50209, false},
		{"lane 0 (evBeacon) per beacon x1e4, paper tree", lane(tree, 0), 10000, false},
		{"lane 1 (evTxBlock) per beacon x1e4, paper tree", lane(tree, 1), 1, false},
		{"lane 2 (evRxArrive) per beacon x1e4, paper tree", lane(tree, 2), 2, false},
		{"lane 3 (evCdc) per beacon x1e4, paper tree", lane(tree, 3), 1, false},
		{"lane 4 (evProcess) per beacon x1e4, paper tree", lane(tree, 4), 2, false},
		{"lane 5 (evWatchdog) per beacon x1e4, paper tree", lane(tree, 5), 205, false},
		{"lane 6 (no port opcode) per beacon x1e4, paper tree", lane(tree, 6), 0, false},
		{"lane 7 (evLand, evSettled) per beacon x1e4, paper tree", lane(tree, 7), 3, false},
		{"inbox arrivals per beacon x1e4, paper tree", perBeacon(tree.inboxed, tree.beacons), 10000, false},
		{"beacons sent per sim-ms, traced paper tree", float64(traced.beacons), 17189, false},
		{"events per beacon x1e4, traced paper tree", perBeacon(traced.events, traced.beacons), 20215, false},
		{"lane 4 (evProcess) per beacon x1e4, traced paper tree", lane(traced, 4), 2, false},
		{"lane 7 (evLand, evSettled) per beacon x1e4, traced paper tree", lane(traced, 7), 10003, false},
		{"inbox arrivals per beacon x1e4, traced paper tree", perBeacon(traced.inboxed, traced.beacons), 0, false},
		{"events per beacon x1e4, hooked paper tree", perBeacon(hooked.events, hooked.beacons), 10218, false},
		{"inbox arrivals per beacon x1e4, hooked paper tree", perBeacon(hooked.inboxed, hooked.beacons), 10000, false},
		{"events per beacon x1e4, master-mode paper tree", perBeacon(master.events, master.beacons), 10218, false},
		{"inbox arrivals per beacon x1e4, master-mode paper tree", perBeacon(master.inboxed, master.beacons), 10000, false},
		{"events per beacon x1e4, hardened paper tree", perBeacon(hardened.events, hardened.beacons), 10218, false},
		{"inbox arrivals per beacon x1e4, hardened paper tree", perBeacon(hardened.inboxed, hardened.beacons), 10000, false},
		{"events per beacon x1e4, traced hardened paper tree", perBeacon(tracedHardened.events, tracedHardened.beacons), 20215, false},
		{"inbox arrivals per beacon x1e4, mixed-speed chain:3", perBeacon(mixed.inboxed, mixed.beacons), 9459, false},
		{"audit sweeps per sim-ms, fattree:4", float64(audited.sweeps), 10, false},
		{"audit pair checks per sweep, fattree:4", float64(audited.pairChecks) / float64(audited.sweeps), 630, false},
		{"allocations per sim-ms, paper tree", allocsPerSimMs(t), 0, false},
		{"Port bytes", float64(unsafe.Sizeof(core.Port{})), 392, true},
		{"event slot bytes", float64(slots.Type.Elem().Size()), 72, false},
	} {
		switch {
		case row.ceiling && row.got > row.want:
			t.Errorf("%s: %v, over the ceiling of %v", row.name, row.got, row.want)
		case !row.ceiling && row.got != row.want:
			t.Errorf("%s: %v, want %v", row.name, row.got, row.want)
		}
	}
}
