package core

import (
	"fmt"

	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// Network is a DTP-enabled network instantiated from a topology graph:
// one Device per node, a pair of Ports (and wires) per link.
type Network struct {
	Sch   *sim.Scheduler
	Graph topo.Graph

	cfg   Config
	rng   *sim.RNG
	codec phy.Codec

	Devices []*Device
	// linkPorts[i] holds the two ports of Graph.Links[i], in (A, B)
	// node order.
	linkPorts [][2]*Port
	// boundUnits is BoundUnits(), fixed by the graph and the link speeds.
	boundUnits int64

	// OnOffset, when set, is invoked for every processed beacon with the
	// receiving port, the beacon's processing instant and the hardware
	// offset sample offset = t2 - t1 - OWD (§6.2), in counter units.
	// The samples of one port come in time order; those of different
	// devices need not, and a sample may reach fn after its instant (a
	// device applies inbox arrivals late, Device.settle), so fn must
	// neither read nor change the network.
	OnOffset func(rx *Port, at sim.Time, offsetUnits int64)

	// tel holds telemetry handles; the zero value (uninstrumented) is a
	// set of nil handles whose updates are no-ops. See WithTelemetry.
	tel coreMetrics

	// Hardened-mode totals, owned by the scheduler goroutine and read
	// after a run via ByzantineStats (campaign Result fields).
	rejectedTotal   uint64
	quarantineTotal uint64
}

// Option customizes network construction.
type Option func(*networkOptions)

type networkOptions struct {
	ppmByName  map[string]float64
	linkSpeeds map[int]phy.Speed
	reg        *telemetry.Registry
	tr         *telemetry.Tracer
}

// WithPPM pins specific devices' oscillator offsets (by topology name)
// instead of drawing them from the uniform distribution. Used by tests
// and worst-case bound experiments.
func WithPPM(byName map[string]float64) Option {
	return func(o *networkOptions) { o.ppmByName = byName }
}

// WithLinkSpeeds builds a mixed-speed network (§7): the map assigns an
// Ethernet speed to topology link indices (unassigned links run at the
// map's implicit default, 10 GbE). Requires the base-clock
// configuration (see MixedSpeedConfig): every device counts 0.32 ns
// base units, and each port advances by its speed's Delta per cycle.
func WithLinkSpeeds(byLink map[int]phy.Speed) Option {
	return func(o *networkOptions) { o.linkSpeeds = byLink }
}

// MixedSpeedConfig returns a configuration for mixed-speed networks:
// devices run the 0.32 ns common base clock; α and the guard are
// expressed per port cycle and scaled by each port's Delta.
//
// α is 5 cycles rather than the homogeneous network's 3: at 10 GbE the
// synchronization-FIFO fill asymmetry between the two directions and
// the complementary edge alignments amount to sub-tick quantities the
// integer arithmetic absorbs, but at pd base-ticks per cycle they can
// inflate the measured RTT by up to two whole cycles. Two extra cycles
// of α keep the measured delay at or below the weaker direction's
// minimum transit, which is the no-ratchet condition (§3.3).
func MixedSpeedConfig() Config {
	c := DefaultConfig()
	c.Profile = phy.BaseProfile()
	c.UnitsPerTick = 1
	c.AlphaUnits = 5
	c.GuardUnits = 8
	return c
}

// ppmRange is the half-width of the uniform distribution oscillator
// offsets are drawn from, in ppm: the 802.3 bound.
const ppmRange = 100

// NewNetwork builds a DTP network over the graph. Oscillator offsets are
// drawn uniformly from ±ppmRange unless pinned via WithPPM.
func NewNetwork(sch *sim.Scheduler, seed uint64, graph topo.Graph, cfg Config, opts ...Option) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	var o networkOptions
	for _, opt := range opts {
		opt(&o)
	}
	n := &Network{
		Sch:   sch,
		Graph: graph,
		cfg:   cfg,
		rng:   sim.NewRNG(seed, "core/network"),
		codec: phy.Codec{Parity: cfg.Parity},
	}
	for _, node := range graph.Nodes {
		drng := n.rng.Fork("dev/" + node.Name)
		ppm, pinned := o.ppmByName[node.Name]
		if !pinned {
			ppm = drng.Uniform(-ppmRange, ppmRange)
		}
		n.Devices = append(n.Devices, newDevice(n, node, ppm, drng))
	}
	// In master mode, compute each node's parent hop toward the root so
	// ports can be marked as uplinks.
	var parentLink []int
	if cfg.Master != "" {
		root, ok := graph.ByName(cfg.Master)
		if !ok {
			return nil, fmt.Errorf("core: master %q not in topology", cfg.Master)
		}
		next := graph.NextHop()
		parentLink = make([]int, len(graph.Nodes))
		for i := range graph.Nodes {
			parentLink[i] = next[i][root.ID] // -1 for the root itself
		}
	}
	for li, l := range graph.Links {
		a, b := n.Devices[l.A], n.Devices[l.B]
		delay := link.DelayForLength(l.LengthM)
		wireAB, err := link.New(sch, n.rng.Fork(fmt.Sprintf("wire/%d/ab", li)), link.Config{Delay: delay, BER: cfg.BER})
		if err != nil {
			return nil, fmt.Errorf("core: link %d (%s-%s): %w", li,
				graph.Nodes[l.A].Name, graph.Nodes[l.B].Name, err)
		}
		wireBA, err := link.New(sch, n.rng.Fork(fmt.Sprintf("wire/%d/ba", li)), link.Config{Delay: delay, BER: cfg.BER})
		if err != nil {
			return nil, fmt.Errorf("core: link %d (%s-%s): %w", li,
				graph.Nodes[l.A].Name, graph.Nodes[l.B].Name, err)
		}
		// Port cycle granularity: 1 in homogeneous networks; the link
		// speed's Delta when devices run the 0.32 ns base clock.
		pd := uint64(1)
		fragmented := cfg.FragmentedMessages
		if o.linkSpeeds != nil {
			if cfg.Profile.PeriodFs != phy.BaseTickFs || cfg.UnitsPerTick != 1 {
				return nil, fmt.Errorf("core: WithLinkSpeeds requires the base-clock config (MixedSpeedConfig)")
			}
			speed, ok := o.linkSpeeds[li]
			if !ok {
				speed = phy.Speed10G
			}
			pd = uint64(phy.ProfileFor(speed).Delta)
			fragmented = fragmented || speed == phy.Speed1G
		}
		pa := &Port{
			portHot:  portHot{dev: a, sched: sch, wire: wireAB, rng: n.rng.Fork(fmt.Sprintf("port/%d/a", li)), owdUnits: -1, pd: pd, fragmented: fragmented},
			portCold: portCold{idx: len(a.ports)},
		}
		pb := &Port{
			portHot:  portHot{dev: b, sched: sch, wire: wireBA, rng: n.rng.Fork(fmt.Sprintf("port/%d/b", li)), owdUnits: -1, pd: pd, fragmented: fragmented},
			portCold: portCold{idx: len(b.ports)},
		}
		pa.peer, pb.peer = pb, pa
		pa.setGate(OpenGate{})
		pb.setGate(OpenGate{})
		wireAB.OnFlights(pb.land, pa.refile)
		wireBA.OnFlights(pa.land, pb.refile)
		if parentLink != nil {
			pa.uplink = parentLink[l.A] == li
			pb.uplink = parentLink[l.B] == li
		}
		a.ports = append(a.ports, pa)
		b.ports = append(b.ports, pb)
		n.linkPorts = append(n.linkPorts, [2]*Port{pa, pb})
	}
	weights := make([]int64, len(graph.Links))
	for i := range weights {
		weights[i] = n.LinkBoundUnits(i)
	}
	_, wsum := graph.HopsWith(nil, weights)
	for _, row := range wsum {
		for _, w := range row {
			if w > n.boundUnits {
				n.boundUnits = w
			}
		}
	}
	if o.reg != nil || o.tr != nil {
		n.instrument(o.reg, o.tr)
	}
	// Device inboxes (Device.file) stay empty where an arrival's effects
	// must be seen in time order: with a tracer, whose ring is in record
	// order.
	if o.tr == nil {
		for _, d := range n.Devices {
			d.in = make([]arrival, inboxPerPort*len(d.ports))
		}
		sch.AfterRun(n.settle)
	}
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Start brings every link up within the first microsecond, lightly
// staggered so INIT handshakes do not run in lockstep.
func (n *Network) Start() {
	for _, lp := range n.linkPorts {
		pa, pb := lp[0], lp[1]
		n.Sch.At(n.rng.UniformTime(0, sim.Microsecond), pa.Up)
		n.Sch.At(n.rng.UniformTime(0, sim.Microsecond), pb.Up)
	}
}

// LinkPorts returns the two ports of topology link i.
func (n *Network) LinkPorts(i int) (*Port, *Port) {
	return n.linkPorts[i][0], n.linkPorts[i][1]
}

// LinkWires returns the two directional wires of topology link i in
// (A→B, B→A) node order, for runtime impairment injection
// (internal/chaos): BER bursts, grey loss, delay asymmetry.
func (n *Network) LinkWires(i int) (ab, ba *link.Wire) {
	return n.linkPorts[i][0].wire, n.linkPorts[i][1].wire
}

// SetLinkUp / SetLinkDown control both directions of topology link i,
// modelling cable plug/pull and network partitions.
func (n *Network) SetLinkUp(i int) {
	n.linkPorts[i][0].Up()
	n.linkPorts[i][1].Up()
}

// SetLinkDown tears down both ports of topology link i.
func (n *Network) SetLinkDown(i int) {
	n.linkPorts[i][0].Down()
	n.linkPorts[i][1].Down()
}

// SetGateAll installs a transmit gate on every port, e.g. a saturated-
// link model for the heavy-load experiments.
func (n *Network) SetGateAll(factory func(p *Port) TxGate) {
	for _, lp := range n.linkPorts {
		lp[0].setGate(factory(lp[0]))
		lp[1].setGate(factory(lp[1]))
	}
}

// DeviceByName returns the device for a topology node name.
func (n *Network) DeviceByName(name string) (*Device, error) {
	node, ok := n.Graph.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: no node named %q", name)
	}
	return n.Devices[node.ID], nil
}

// settle applies every device's due inbox arrivals (Device.settle):
// after each run, and before the telemetry flush sums what they count.
func (n *Network) settle() {
	for _, d := range n.Devices {
		d.settle()
	}
}

// TrueOffsetUnits returns the ground-truth counter difference
// c_a(t) - c_b(t) between two devices at the current instant — the
// quantity the paper's ε bounds (§2.1, eq. 1). This is the simulator's
// omniscient view; the protocol itself can only estimate it.
func (n *Network) TrueOffsetUnits(a, b int) int64 {
	return int64(n.Devices[a].GlobalCounter()) - int64(n.Devices[b].GlobalCounter())
}

// MaxAdjacentOffset returns the largest |true offset| across directly
// connected pairs, in counter units.
func (n *Network) MaxAdjacentOffset() int64 {
	var max int64
	for _, l := range n.Graph.Links {
		o := n.TrueOffsetUnits(l.A, l.B)
		if o < 0 {
			o = -o
		}
		if o > max {
			max = o
		}
	}
	return max
}

// MaxPairwiseOffset returns the largest |true offset| across all device
// pairs — the network-wide ε. Each counter is read once: the largest
// pairwise difference is the spread of the wrap-safe deltas against
// device 0, wherever the counters sit on the 64-bit circle (astride
// 2^63 or the 2^64 wrap included) as long as they span less than 2^63.
func (n *Network) MaxPairwiseOffset() int64 {
	if len(n.Devices) == 0 {
		return 0
	}
	c0 := n.Devices[0].GlobalCounter()
	var lo, hi int64
	for _, d := range n.Devices[1:] {
		delta := int64(d.GlobalCounter() - c0)
		if delta < lo {
			lo = delta
		}
		if delta > hi {
			hi = delta
		}
	}
	return hi - lo
}

// LinkSynced reports whether both ports of topology link i completed
// their delay measurement — the link is actively carrying beacons. A
// quarantined port (hardened mode) is not synced: the auditor's active
// bitmap is built from this predicate, so quarantined links drop out of
// the BFS bounds automatically.
func (n *Network) LinkSynced(i int) bool {
	lp := n.linkPorts[i]
	lp[0].dev.settle()
	lp[1].dev.settle()
	return lp[0].state == portSynced && lp[1].state == portSynced
}

// ByzantineStats returns hardened mode's cumulative bounded-jump
// admission rejections and quarantine entries across all ports.
func (n *Network) ByzantineStats() (rejected, quarantined uint64) {
	n.settle()
	return n.rejectedTotal, n.quarantineTotal
}

// LinkBoundUnits returns topology link i's per-hop contribution to the
// 4TD precision bound, in counter units: 4 port cycles at the link's
// speed. In a homogeneous network every link contributes 4 ticks; in a
// mixed-speed network (§7) a link contributes 4×Delta base units.
func (n *Network) LinkBoundUnits(i int) int64 {
	p := n.linkPorts[i][0]
	return 4 * int64(p.pd) * int64(n.cfg.UnitsPerTick)
}

// AllSynced reports whether every port of every link has completed its
// delay measurement.
func (n *Network) AllSynced() bool {
	n.settle()
	for _, lp := range n.linkPorts {
		if lp[0].state != portSynced || lp[1].state != portSynced {
			return false
		}
	}
	return true
}

// BoundUnits returns the paper's precision bound 4TD in counter units
// for this network: the largest, over device pairs, of LinkBoundUnits
// summed along the pair's shortest path — the weighted diameter, the
// same per-pair sum the auditor charges (topo.Graph.HopsWith). On a
// homogeneous network that is 4 · UnitsPerTick · Graph.Diameter().
func (n *Network) BoundUnits() int64 { return n.boundUnits }
