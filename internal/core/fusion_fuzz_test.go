package core_test

import (
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// A fuzz program is a world byte, a seed byte, then 4-byte operations
// [mutation, port, when, stage]: at 200 µs + when·5 µs the mutation is
// armed on the port (by link order, A side first). Stage 0 applies it
// there and then; stages 1-5 apply it at the instant a skipped stage of
// the port's next beacon would run: T1 (TX pipeline done), T2 (leading
// edge at the peer), T3 (the landing itself), halfway along the cable,
// or halfway from T2 to T3 (past the far end, short of a settled
// landing). Those instants are where the re-filing rules decide.
const (
	fuzzBase   = 200 * sim.Microsecond
	fuzzStep   = 5 * sim.Microsecond
	fuzzWindow = fuzzBase + 256*fuzzStep + 500*sim.Microsecond
)

// fuzzMutations are the changes a skipped stage can read, with their
// restores: the port's outbound wire (delay, BER, loss), its device's
// oscillator rate, the peer going down (a bounce that is back up
// before the landing, or a crash and restart), and on the receiving
// side, which a settled landing reads: the peer's oscillator rate and
// the peer port down for microseconds.
var fuzzMutations = []func(p *core.Port, w *link.Wire, base sim.Time, arg byte){
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) {
		_ = w.SetDelay(base + sim.Time(arg)*sim.Nanosecond)
	},
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) { _ = w.SetDelay(base) },
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) { w.SetBER(1e-4) },
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) { w.SetBER(0) },
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) { w.SetLossP(0.5) },
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) { w.SetLossP(0) },
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) {
		clk := p.Device().Clock()
		clk.AdjustPPM(max(-clk.MaxPPM(), min(clk.MaxPPM(), clk.PPM()+float64(int8(arg)))))
	},
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) {
		peer := p.Peer()
		peer.Down()
		p.Device().Clock().Scheduler().After(sim.Time(arg)*100, peer.Up)
	},
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) {
		d := p.Peer().Device()
		d.Crash()
		p.Device().Clock().Scheduler().After(50*sim.Microsecond+sim.Time(arg)*sim.Microsecond, d.Restart)
	},
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) {
		clk := p.Peer().Device().Clock()
		clk.AdjustPPM(max(-clk.MaxPPM(), min(clk.MaxPPM(), clk.PPM()+float64(int8(arg))/8)))
	},
	func(p *core.Port, w *link.Wire, base sim.Time, arg byte) {
		peer := p.Peer()
		peer.Down()
		p.Device().Clock().Scheduler().After(sim.Time(arg)*sim.Microsecond, peer.Up)
	},
}

// fuzzWorlds are what a program's world byte picks from, modulo their
// number: a pair, chain:3 and the paper tree, then the paper tree in
// master mode (§5.4), chain:3 at mixed speeds (§7), whose 40 and
// 100 GbE ports run multi-tick cycles, and the fusion worlds' hardened
// pair, which runs on past the program's window into its overclaim's
// beacon rejections and quarantines (untraced, applied from the
// inboxes).
var fuzzWorlds = []fusionWorld{
	{g: topo.Pair()},
	{g: topo.Chain(3)},
	{g: topo.PaperTree()},
	{g: topo.PaperTree(), cfg: func(c *core.Config) { c.Master = "s0" }},
	{g: topo.Chain(3), speeds: mixedSpeeds},
	creepPair,
}

// fuzzProgram decodes a program into a world whose arm hook schedules
// its mutations.
func fuzzProgram(prog []byte) fusionWorld {
	w := fuzzWorlds[0]
	if len(prog) > 0 {
		w = fuzzWorlds[int(prog[0])%len(fuzzWorlds)]
	}
	w.name, w.until, w.perEmitter = "fuzz", fuzzWindow, true
	if len(prog) > 1 {
		w.seed = uint64(prog[1])
	}
	var ops [][4]byte
	for i := 2; i+4 <= len(prog) && len(ops) < 64; i += 4 {
		ops = append(ops, [4]byte(prog[i:i+4]))
	}
	// aimed records, on a traced run, where the observer put each
	// mutation it aimed at a skipped stage; an untraced run, having no
	// trace to aim by, schedules them there from the start.
	type aimedOp struct {
		at   sim.Time
		op   [4]byte
		port int
	}
	var aimed []aimedOp
	w.arm = func(n *core.Network, traced bool) func(telemetry.Event) {
		var ports []*core.Port
		wires := map[*core.Port]*link.Wire{}
		byName := map[string]int{}
		// cycles holds each port's cycle in device ticks: 4 of them
		// make up its link's contribution to the bound, in counter units.
		cycles := map[*core.Port]int64{}
		for i := range n.Graph.Links {
			a, b := n.LinkPorts(i)
			ab, ba := n.LinkWires(i)
			byName[a.Name()], byName[b.Name()] = len(ports), len(ports)+1
			ports = append(ports, a, b)
			wires[a], wires[b] = ab, ba
			cycles[a] = n.LinkBoundUnits(i) / 4 / int64(n.Config().UnitsPerTick)
			cycles[b] = cycles[a]
		}
		bases := map[*link.Wire]sim.Time{}
		for _, wire := range wires {
			bases[wire] = wire.Delay()
		}
		apply := func(op [4]byte, p *core.Port) {
			fuzzMutations[int(op[0])%len(fuzzMutations)](p, wires[p], bases[wires[p]], op[2])
		}
		armed := map[*core.Port][][4]byte{}
		for _, op := range ops {
			op, p := op, ports[int(op[1])%len(ports)]
			if op[3]%6 != 0 && !traced {
				continue
			}
			n.Sch.At(fuzzBase+sim.Time(op[2])*fuzzStep, func() {
				if op[3]%6 == 0 {
					apply(op, p)
					return
				}
				armed[p] = append(armed[p], op)
			})
		}
		if !traced {
			for _, a := range aimed {
				a := a
				n.Sch.At(a.at, func() { apply(a.op, ports[a.port]) })
			}
			return nil
		}
		aimed = aimed[:0]
		// The instants are the port's own sums, in its port cycles (both
		// pipelines run at the sender's): insert runs at the beacon's
		// instant, right after the beacon_tx event, so a mutation
		// scheduled here precedes the launch in (time, Key) order as a
		// chaos script's would.
		return func(e telemetry.Event) {
			pi, ok := byName[e.Who]
			if !ok || e.Kind != telemetry.KindBeaconTx || len(armed[ports[pi]]) == 0 {
				return
			}
			p := ports[pi]
			period := cycles[p] * p.Device().Clock().PeriodFs()
			t1 := e.At + sim.Femto(phy.DefaultTxPipelineTicks*period)
			t2 := t1 + wires[p].Delay()
			t3 := t2 + sim.Femto(phy.DefaultRxPipelineTicks*period)
			at := [...]sim.Time{t1, t2, t3, (t1 + t2) / 2, (t2 + t3) / 2}
			for _, op := range armed[p] {
				op := op
				a := aimedOp{at[op[3]%6-1], op, pi}
				aimed = append(aimed, a)
				n.Sch.At(a.at, func() { apply(op, p) })
			}
			delete(armed, p)
		}
	}
	return w
}

// FuzzFusedChain drives random mutation schedules through a world with
// flights and with the five-event chain, traced and then untraced (where
// the mutations aimed by the traced run's beacons are replayed at the
// same instants): every counter and each port's and device's own trace
// must match. The global interleaving of same-picosecond events on
// different devices is not compared: random
// search found flights reordering it in 2 of 3 000 programs (5 of 2 000
// when about half the operations switch BER on), and never a counter or
// a per-emitter trace. The seed corpus holds the storm shapes (a
// flap, a BER burst, a crash) and, for each re-filing hook — Refile on
// a down peer, on a sender rate change and in the wire setters,
// Unsettle on a down peer and on a receiver rate change — a program on
// which a network that lacks that hook diverges, and four programs that
// hand back a band landing's draw at its T3 (TestBandLandingHandedBack
// pins each rule that hand-back needs). Untraced, seed#1 and seed#3
// also diverge when MaxPairwiseOffset reads the counters without
// settling the inboxes. The random-search programs were found when the
// world byte picked among the first three worlds; they carry their
// world's index.
func FuzzFusedChain(f *testing.F) {
	for _, prog := range [][]byte{
		// A flap, a BER burst and a crash, as in the storm, on chain:3,
		// the paper tree, the master-mode tree and mixed-speed chain:3
		// at the storm seeds, and on the hardened pair at its seed.
		{1, 32, 7, 2, 10, 0, 7, 2, 40, 2, 2, 3, 60, 1, 3, 3, 90, 0, 8, 5, 120, 0},
		{2, 55, 7, 4, 10, 2, 7, 4, 40, 3, 2, 6, 60, 1, 3, 6, 90, 0, 8, 9, 120, 0},
		{1, 76, 7, 1, 12, 1, 2, 3, 30, 2, 3, 3, 50, 3, 8, 1, 70, 0},
		{2, 217, 7, 6, 15, 3, 2, 0, 25, 4, 3, 0, 45, 1, 8, 7, 65, 0},
		{3, 55, 7, 4, 10, 2, 7, 4, 40, 3, 2, 6, 60, 1, 3, 6, 90, 0, 8, 9, 120, 0},
		{4, 32, 7, 2, 10, 0, 7, 2, 40, 2, 2, 3, 60, 1, 3, 3, 90, 0, 8, 5, 120, 0},
		{5, 9, 7, 0, 10, 0, 7, 0, 40, 2, 2, 1, 60, 1, 3, 1, 90, 0, 8, 0, 120, 0},
		// Found by random search: each diverges once its hook is gone.
		// Down without re-filing (a bounce back up before the landing):
		{0, 0x4, 0x3, 0x31, 0xf9, 0x3, 0x7, 0x8d, 0xf5, 0x4, 0x5, 0xe0, 0x29, 0x1, 0x7, 0xd8, 0x40, 0x3, 0x7, 0x50, 0x52, 0x2},
		// a rate change without re-filing:
		{1, 0xe7, 0x5, 0x8, 0x54, 0x4, 0x6, 0x9f, 0x8f, 0x4, 0x6, 0x23, 0x5b, 0x1},
		// wire delay and BER setters without re-filing:
		{0, 0x53, 0x0, 0x9b, 0x2c, 0x1, 0x4, 0xfa, 0xd8, 0x1, 0x0, 0x99, 0x81, 0x2, 0x0, 0xc5, 0x95, 0x4, 0x0, 0x44, 0x62, 0x2, 0x0, 0xf7, 0x51, 0x1, 0x1, 0x5c, 0xc7, 0x1},
		{1, 0x2f, 0x2, 0x1d, 0x58, 0x1, 0x1, 0x46, 0x4f, 0x3, 0x2, 0x26, 0xab, 0x2, 0x2, 0xa, 0x4f, 0x2, 0x2, 0x75, 0xba, 0x1, 0x5, 0xe5, 0x83, 0x2},
		// Settled landings: Down without handing them back (the peer held
		// down from mid-cable, then bounced at T3):
		{0, 0x73, 10, 0xc4, 0xc6, 4, 7, 0xbd, 0x41, 3},
		// a receiver rate change without handing them back:
		{0, 0xf9, 9, 0x5d, 0xb8, 1, 9, 0x2e, 0xe1, 4},
		// Band landings, drawn at launch: a receiver rate change, and a
		// receiver bounce of 7 ns (9.9 ns on the tree), at the T3 of a
		// beacon that lands in the metastability band, so its draw is
		// handed back at its landing — on the pair, then on the paper tree.
		{0, 1, 9, 0x11, 0x46, 3},
		{0, 1, 7, 0x11, 0x46, 3},
		{2, 1, 9, 0x6, 0x63, 3},
		{2, 1, 7, 0x6, 0x63, 3},
	} {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		w := fuzzProgram(prog)
		for _, m := range tracedModes {
			fused, _, _ := fingerprint(t, w, true, m.traced)
			chain, _, _ := fingerprint(t, w, false, m.traced)
			requireSameRun(t, fused, chain)
		}
	})
}
