package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/campaign"
	"github.com/dtplab/dtp/internal/chaos"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// fusionWorld is one run compared with the flight path on and off.
type fusionWorld struct {
	name     string
	g        topo.Graph
	seed     uint64
	cfg      func(*core.Config)
	speeds   map[int]phy.Speed // WithLinkSpeeds (MixedSpeedConfig), nil for none
	scenario *chaos.Scenario   // nil: a clean run of until
	until    sim.Time          // run length when there is no scenario
	// arm, when set, is called on the built network and, on a traced
	// run, returns an observer of every trace event (how FuzzFusedChain
	// aims its mutations).
	arm func(n *core.Network, traced bool) func(telemetry.Event)
	// inboxCap, when set, caps every device inbox at that many arrivals,
	// so that a full inbox sends arrivals to evSettled among those it
	// takes.
	inboxCap int
	// perEmitter digests the trace per emitting port or device instead
	// of as one stream, leaving out the global sequence numbers: the
	// interleaving of same-picosecond events on different devices is
	// the one thing flights do not keep (DESIGN.md, "Ties").
	perEmitter bool
}

// fingerprint runs w and renders everything a run exposes: a digest of
// the full trace (firehose kinds included; one per emitter with
// perEmitter), the worst pairwise offset every 100 µs, read by an event
// in mid-run, every device counter and rate, every port's state and
// stats, every wire's stats and impairments, the auditor's counts, the
// chaos verdict and the metrics registry. Everything but the scheduler's
// own event count and the arrivals the devices' inboxes took, which it
// returns beside.
//
// Untraced, no tracer is attached and the trace digest is empty. That
// is the mode in which settled beacons skip the scheduler through their
// device's inbox (a tracer keeps them events, so that its ring stays in
// time order), which the traced mode never exercises.
func fingerprint(t testing.TB, w fusionWorld, fused, traced bool) (run string, events, inboxed uint64) {
	defer core.SetFusedChain(core.SetFusedChain(fused))
	cfg := core.DefaultConfig()
	var opts []core.Option
	if w.speeds != nil {
		cfg = core.MixedSpeedConfig()
		opts = append(opts, core.WithLinkSpeeds(w.speeds))
	}
	cfg.WanderInterval, cfg.WanderStepPPB = sim.Millisecond, 100
	if w.cfg != nil {
		w.cfg(&cfg)
	}
	reg := telemetry.New()
	var tr *telemetry.Tracer
	traces, recorded := map[string]hash.Hash{}, 0
	var observe func(telemetry.Event)
	if traced {
		tr = telemetry.NewTracer(64)
		tr.SetKinds()
		tr.OnRecord(func(e telemetry.Event) {
			recordTrace(e, traces, w.perEmitter)
			recorded++
			if observe != nil {
				observe(e)
			}
		})
	}
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, w.seed, w.g, cfg, append(opts, core.WithTelemetry(reg, tr))...)
	if err != nil {
		t.Fatal(err)
	}
	if w.inboxCap > 0 {
		core.CapInboxes(n, w.inboxCap)
	}
	if w.arm != nil {
		observe = w.arm(n, traced)
	}
	aud := audit.New(n, audit.Config{Interval: 100 * sim.Microsecond}, reg, tr)
	until := w.until
	var eng *chaos.Engine
	if w.scenario != nil {
		if eng, err = chaos.NewEngine(n, w.scenario, w.seed, reg, tr, aud); err != nil {
			t.Fatal(err)
		}
		until = eng.Deadline()
	}
	n.Start()
	var b strings.Builder
	var sample func()
	sample = func() {
		fmt.Fprintf(&b, "%d ", n.MaxPairwiseOffset())
		if next := sch.Now() + 100*us; next < until {
			sch.At(next, sample)
		}
	}
	sch.At(min(100*us, until), sample)
	sch.Run(until)
	fmt.Fprintf(&b, "%d\ntrace %d events\n", n.MaxPairwiseOffset(), recorded)
	streams := make([]string, 0, len(traces))
	for k := range traces {
		streams = append(streams, k)
	}
	sort.Strings(streams)
	for _, k := range streams {
		fmt.Fprintf(&b, "trace %q %x\n", k, traces[k].Sum(nil))
	}
	for _, d := range n.Devices {
		fmt.Fprintf(&b, "%s counter=%d ppm=%v\n", d.Name(), d.GlobalCounter(), d.PPM())
		for _, p := range d.Ports() {
			sent, rx, ign, jumps := p.Stats()
			fmt.Fprintf(&b, "  %s %s owd=%d faulty=%v beacons=%d/%d/%d/%d dropped_down=%d\n",
				p.Name(), p.State(), p.OWDUnits(), p.Faulty(), sent, rx, ign, jumps, p.DroppedDown())
		}
	}
	for i := range n.Graph.Links {
		ab, ba := n.LinkWires(i)
		for _, wire := range []*link.Wire{ab, ba} {
			sent, corrupted := wire.Stats()
			fmt.Fprintf(&b, "wire %d sent=%d corrupted=%d dropped=%d delay=%v ber=%v loss=%v\n",
				i, sent, corrupted, wire.Dropped(), wire.Delay(), wire.BER(), wire.LossP())
		}
	}
	rej, quar := n.ByzantineStats()
	fmt.Fprintf(&b, "byzantine %d %d\naudit %s checks=%d pairs=%d violations=%d excused=%d worst=%d slack=%d sync=%v reconv=%v\n",
		rej, quar, aud.Summary(), aud.Checks(), aud.PairChecks(), aud.Violations(), aud.ExcusedViolations(),
		aud.WorstOffsetUnits(), aud.MinSlackUnits(), aud.TimeToSync(), aud.Reconvergences())
	if eng != nil {
		fmt.Fprintf(&b, "chaos %v\n", eng.Verify())
	}
	if err := telemetry.WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	return b.String(), sch.Processed(), core.InboxArrivals(n)
}

// recordTrace folds e into its stream's digest: every field JSONL
// renders, without the cost of rendering it. With perEmitter the stream
// is the emitter and the global sequence number is left out.
func recordTrace(e telemetry.Event, traces map[string]hash.Hash, perEmitter bool) {
	stream := ""
	if perEmitter {
		stream, e.Seq = e.Who, 0
	}
	h := traces[stream]
	if h == nil {
		h = sha256.New()
		traces[stream] = h
	}
	var b [40]byte
	binary.LittleEndian.PutUint64(b[0:], e.Seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(e.At))
	binary.LittleEndian.PutUint64(b[16:], uint64(e.Kind))
	binary.LittleEndian.PutUint64(b[24:], uint64(e.V1))
	binary.LittleEndian.PutUint64(b[32:], uint64(e.V2))
	h.Write(b[:])
	io.WriteString(h, e.Who+"\x00"+e.Detail+"\x00")
}

// tracedModes names the two ways every fusion comparison runs.
var tracedModes = []struct {
	name   string
	traced bool
}{{"traced", true}, {"untraced", false}}

// requireSameRun fails with the first line that differs.
func requireSameRun(t *testing.T, fused, chain string) {
	t.Helper()
	if fused == chain {
		return
	}
	f, c := strings.Split(fused, "\n"), strings.Split(chain, "\n")
	for i := 0; i < len(f) && i < len(c); i++ {
		if f[i] != c[i] {
			t.Fatalf("flights and the five-event chain differ at line %d:\n  flights: %.300s\n  chain:   %.300s", i, f[i], c[i])
		}
	}
	t.Fatalf("flights and the five-event chain differ in length: %d lines against %d", len(f), len(c))
}

// linkFault targets the cable of topology link i.
func linkFault(g topo.Graph, i int, f chaos.Fault) chaos.Fault {
	l := g.Links[i]
	f.Link = []string{g.Nodes[l.A].Name, g.Nodes[l.B].Name}
	return f
}

func at(t sim.Time) chaos.Duration { return chaos.D(t) }

const us, ms = sim.Microsecond, sim.Millisecond

// mixedSpeeds runs chain:3's links at 1, 40 and 100 GbE (§7): 1 GbE
// fragments, and ports whose cycle is several device ticks.
var mixedSpeeds = map[int]phy.Speed{0: phy.Speed1G, 1: phy.Speed40G, 2: phy.Speed100G}

// creepPair is a hardened pair whose h0 overclaims by one more unit
// every 2 µs for 1 ms. Its oscillators keep still, so the creep is
// caught on beacons by the windowed pull budget: h1 rejects h0's, and
// h0 rejects h1's once h1 has adopted part of the lie. Untraced, those
// twelve rejections and the three quarantines they earn are applied
// from the inboxes; the tree's attacks are caught on JOINs, which stay
// events.
var creepPair = fusionWorld{
	name: "pair/creep/hardened", g: topo.Pair(), seed: 9,
	cfg: func(c *core.Config) {
		c.Hardened = true
		c.WanderInterval, c.WanderStepPPB = 0, 0
	},
	scenario: &chaos.Scenario{Name: "creep", ReconvergeDeadline: at(3 * ms), Faults: []chaos.Fault{
		{Kind: chaos.KindOverclaim, Device: "h0", At: at(2 * ms), Duration: at(ms), JumpUnits: 1, Cadence: at(2 * us)},
	}},
}

// fusionWorlds are the runs the flight path must leave untouched: every
// chaos kind (the attacks under hardened mode and without it), clean
// and wandering oscillators, mixed speeds with 1 GbE fragments, master
// mode (§5.4) clean and through the accidents, a hardened pair caught
// on its beacons, the plain-mode worlds again with one-entry inboxes,
// and the chain:5 storm seeds on which flights that are never re-filed
// diverge.
func fusionWorlds(t testing.TB) []fusionWorld {
	tree, ft4 := topo.PaperTree(), topo.FatTree(4)
	accidents := &chaos.Scenario{Name: "accidents", SettleGrace: at(600 * us), ReconvergeDeadline: at(3 * ms), Faults: []chaos.Fault{
		linkFault(tree, 0, chaos.Fault{Kind: chaos.KindFlap, At: at(2 * ms), Duration: at(ms), MeanUp: at(200 * us), MeanDown: at(100 * us)}),
		linkFault(tree, 1, chaos.Fault{Kind: chaos.KindBERBurst, At: at(2500 * us), Duration: at(ms), BER: 1e-4}),
		linkFault(tree, 3, chaos.Fault{Kind: chaos.KindGreyLoss, At: at(3 * ms), Duration: at(500 * us), LossP: 0.3}),
		linkFault(tree, 5, chaos.Fault{Kind: chaos.KindGreyDelay, At: at(3500 * us), Duration: at(ms), ExtraDelay: at(200 * sim.Nanosecond), Steps: 7}),
		{Kind: chaos.KindFreqStep, Device: "s3", At: at(4 * ms), Duration: at(ms), PPMStep: 20},
		{Kind: chaos.KindTempRamp, Device: "s9", At: at(4500 * us), Duration: at(ms), PPMStep: -30, Steps: 9},
		{Kind: chaos.KindCrash, Device: "s5", At: at(5 * ms), Duration: at(500 * us)},
		linkFault(tree, 9, chaos.Fault{Kind: chaos.KindBERDegrade, At: at(6 * ms), BER: 1e-6}),
	}}
	attacks := &chaos.Scenario{Name: "attacks", SettleGrace: at(100 * us), ReconvergeDeadline: at(3 * ms), Faults: []chaos.Fault{
		{Kind: chaos.KindLiar, Device: "s8", At: at(2 * ms), Duration: at(ms), JumpUnits: 5000, Cadence: at(2 * us)},
		{Kind: chaos.KindOverclaim, Device: "s5", At: at(3500 * us), Duration: at(ms), JumpUnits: 6, Cadence: at(2 * us)},
		linkFault(tree, 6, chaos.Fault{Kind: chaos.KindSpoof, At: at(5 * ms), Duration: at(ms), JumpUnits: 6, Cadence: at(2 * us)}),
	}}
	hardened := func(c *core.Config) { c.Hardened = true }
	master := func(c *core.Config) { c.Master = "s0" }
	worlds := []fusionWorld{
		{name: "tree/clean", g: tree, seed: 1, until: 5 * ms},
		{name: "tree/accidents", g: tree, seed: 2, scenario: accidents},
		{name: "tree/attacks/hardened", g: tree, seed: 3, scenario: attacks, cfg: hardened},
		{name: "tree/attacks/plain", g: tree, seed: 3, scenario: attacks},
		{name: "fattree4/delay+rate", g: ft4, seed: 4, scenario: &chaos.Scenario{Name: "ft4", ReconvergeDeadline: at(ms), Faults: []chaos.Fault{
			linkFault(ft4, 0, chaos.Fault{Kind: chaos.KindGreyDelay, At: at(ms), Duration: at(ms), ExtraDelay: at(500 * sim.Nanosecond), Steps: 5}),
			{Kind: chaos.KindFreqStep, Device: ft4.Nodes[ft4.HostIDs()[0]].Name, At: at(1500 * us), Duration: at(ms), PPMStep: -40},
			linkFault(ft4, 7, chaos.Fault{Kind: chaos.KindFlap, At: at(2 * ms), Duration: at(ms), MeanUp: at(150 * us), MeanDown: at(50 * us)}),
		}}},
		{name: "chain3/mixed-speed", g: topo.Chain(3), seed: 5, until: 4 * ms,
			speeds: mixedSpeeds},
		{name: "tree/clean/master", g: tree, seed: 6, until: 5 * ms, cfg: master},
		{name: "tree/accidents/master", g: tree, seed: 7, scenario: accidents, cfg: master},
		creepPair,
	}
	for _, w := range worlds[:5:5] {
		if w.cfg == nil {
			w.name, w.inboxCap = w.name+"/inbox=1", 1
			worlds = append(worlds, w)
		}
	}
	storm, err := chaos.Load("../../examples/chaos/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{32, 55, 76, 217} {
		worlds = append(worlds, fusionWorld{name: fmt.Sprintf("chain5/storm/seed=%d", seed), g: topo.Chain(5), seed: seed, scenario: storm})
	}
	return worlds
}

// Flights skip the stages of a block's chain, and untraced, settled
// beacons skip the scheduler too; everything a run exposes must stay
// byte-identical to the five-event chain, traced and untraced. Flights
// that are never re-filed diverge from it on the four storm seeds here.
func TestFusedChainMatchesFiveEventChain(t *testing.T) {
	for _, w := range fusionWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			for _, m := range tracedModes {
				if m.traced && w.inboxCap > 0 {
					continue // a tracer leaves no inbox to cap
				}
				t.Run(m.name, func(t *testing.T) {
					fused, fusedEvents, inboxed := fingerprint(t, w, true, m.traced)
					chain, chainEvents, _ := fingerprint(t, w, false, m.traced)
					requireSameRun(t, fused, chain)
					if fusedEvents*4 > chainEvents*3 {
						t.Fatalf("flights ran %d events against the chain's %d: the fast path barely engaged", fusedEvents, chainEvents)
					}
					// A tracer keeps every arrival an event.
					if wantInbox := !m.traced; wantInbox != (inboxed > 0) {
						t.Fatalf("%d arrivals took the inbox; want some: %v", inboxed, wantInbox)
					}
				})
			}
		})
	}
}

// The campaign's own records for the storm seeds above (with and
// without the daemon probe) and a hardened liar point with the serving
// plane on: byte-identical JSONL.
func TestFusedChainCampaignRecords(t *testing.T) {
	grids := []campaign.Grid{{
		Name: "storm", Topos: []string{"chain:5"}, Chaos: []string{"../../examples/chaos/storm.json"},
		Durations:   []campaign.Duration{campaign.Duration(10 * ms.Std())},
		Disciplines: []string{"", "lad"}, Seeds: []uint64{32, 55, 76, 217}, Wander: true,
	}, {
		Name: "liar", Topos: []string{"tree"}, Liars: []int{1},
		Durations: []campaign.Duration{campaign.Duration(4 * ms.Std())},
		Hardened:  []bool{true}, Disciplines: []string{"lad"}, TimeService: true,
		Seeds: []uint64{17}, Wander: true,
	}}
	for _, g := range grids {
		var out [2]bytes.Buffer
		for i, fused := range []bool{true, false} {
			was := core.SetFusedChain(fused)
			rep, err := campaign.Run(g, campaign.Options{Jobs: 1})
			core.SetFusedChain(was)
			if err != nil {
				t.Fatal(err)
			}
			if err := campaign.WriteJSONL(&out[i], rep.Results); err != nil {
				t.Fatal(err)
			}
		}
		requireSameRun(t, out[0].String(), out[1].String())
	}
}
