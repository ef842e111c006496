// Package fabric is a packet-level network simulator: hosts with NICs,
// output-queued cut-through switches, byte-accurate serialization, FIFO
// egress queues with tail drop, and static shortest-path routing. The
// PTP and NTP baselines run on this fabric, so their precision
// degradation under load is an emergent property of real queueing
// rather than a tuned constant.
package fabric

import (
	"fmt"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// TCMode selects the transparent-clock behaviour of switches for PTP
// event frames.
type TCMode int

const (
	// TCOff disables residence-time correction.
	TCOff TCMode = iota
	// TCRealistic corrects the deterministic pipeline latency but not
	// congestion-dependent queue wait. This reproduces the field
	// observation (Zarick et al., cited by the paper §2.4.2) that
	// transparent clocks often behave like plain switches under
	// congestion: the correction is computed from calibrated constants
	// rather than a measured egress departure.
	TCRealistic
	// TCPerfect measures true residence time ingress-to-serialization
	// with only timestamp quantization noise — the textbook transparent
	// clock, available for ablation.
	TCPerfect
)

// Config describes the fabric features an experiment varies.
type Config struct {
	// TC selects the transparent-clock model for PTP event frames.
	TC TCMode
	// PTPPriority puts PTP event frames in a strict-priority queue at
	// every egress (the PFC/QoS configuration the paper's citations
	// examine). Transmission is non-preemptive: a priority frame still
	// waits out the bulk frame already on the wire, so queueing noise
	// shrinks to about one serialization time per hop rather than
	// vanishing.
	PTPPriority bool
}

// The switch hardware no experiment varies. Switches are cut-through,
// like the paper's IBM G8264, which is known to behave well for PTP.
const (
	// procDelay is the switch pipeline latency from ingress decision to
	// egress enqueue.
	procDelay = 500 * sim.Nanosecond
	// headerBytes is how much of a frame a cut-through switch must
	// receive before forwarding begins.
	headerBytes = 64
	// queueCapBytes is the egress queue capacity per port.
	queueCapBytes = 1 << 20
	// tcQuantPs is the transparent clock's timestamp resolution, 8 ns:
	// its correction error is uniform within ±tcQuantPs per hop even
	// when the TC is perfect.
	tcQuantPs = 8000
)

// profile sets the line rate of every link: 10 GbE.
var profile = phy.ProfileFor(phy.Speed10G)

// DefaultConfig returns a fabric whose transparent clocks run in the
// realistic mode.
func DefaultConfig() Config {
	return Config{TC: TCRealistic}
}

// Handler consumes frames delivered to a host. rx is the arrival time of
// the frame's last bit at the NIC.
type Handler func(f *eth.Frame, rx sim.Time)

// Network is an instantiated packet fabric.
type Network struct {
	Sch   *sim.Scheduler
	Graph topo.Graph

	cfg     Config
	rng     *sim.RNG
	nextHop [][]int

	elements []*element
}

// element is a host or switch with its egress ports.
type element struct {
	net      *Network
	node     topo.Node
	ports    map[int]*egressPort // keyed by topology link index
	handlers map[eth.Proto]Handler

	delivered uint64
}

// egressPort is one transmit queue plus its wire.
type egressPort struct {
	owner    *element
	linkIdx  int
	peerNode int
	wire     *link.Wire

	queue      []*eth.Frame // bulk traffic
	prio       []*eth.Frame // PTP event frames when PTPPriority is set
	queueBytes int
	busy       bool

	enqueued uint64
	dropped  uint64
}

// New builds a fabric over the topology graph.
func New(sch *sim.Scheduler, seed uint64, graph topo.Graph, cfg Config) (*Network, error) {
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Sch:     sch,
		Graph:   graph,
		cfg:     cfg,
		rng:     sim.NewRNG(seed, "fabric"),
		nextHop: graph.NextHop(),
	}
	for _, node := range graph.Nodes {
		n.elements = append(n.elements, &element{
			net:      n,
			node:     node,
			ports:    map[int]*egressPort{},
			handlers: map[eth.Proto]Handler{},
		})
	}
	for li, l := range graph.Links {
		delay := link.DelayForLength(l.LengthM)
		wa, err := link.New(sch, n.rng.Fork(fmt.Sprintf("w%da", li)), link.Config{Delay: delay})
		if err != nil {
			return nil, fmt.Errorf("fabric: link %d: %w", li, err)
		}
		wb, err := link.New(sch, n.rng.Fork(fmt.Sprintf("w%db", li)), link.Config{Delay: delay})
		if err != nil {
			return nil, fmt.Errorf("fabric: link %d: %w", li, err)
		}
		n.elements[l.A].ports[li] = &egressPort{
			owner: n.elements[l.A], linkIdx: li, peerNode: l.B, wire: wa,
		}
		n.elements[l.B].ports[li] = &egressPort{
			owner: n.elements[l.B], linkIdx: li, peerNode: l.A, wire: wb,
		}
	}
	return n, nil
}

// Handle registers a protocol handler on a host node.
func (n *Network) Handle(node int, proto eth.Proto, h Handler) {
	n.elements[node].handlers[proto] = h
}

// Send injects a frame at its source host. Returns false if the egress
// queue dropped it.
func (n *Network) Send(f *eth.Frame) bool {
	if f.Size <= 0 {
		panic("fabric: frame with no size")
	}
	el := n.elements[f.Src]
	port := el.portToward(f.Dst)
	if port == nil {
		panic(fmt.Sprintf("fabric: no route %d -> %d", f.Src, f.Dst))
	}
	return port.enqueue(f)
}

func (el *element) portToward(dst int) *egressPort {
	if dst == el.node.ID {
		return nil
	}
	li := el.net.nextHop[el.node.ID][dst]
	if li < 0 {
		return nil
	}
	return el.ports[li]
}

// --- Egress queue -----------------------------------------------------

func (p *egressPort) enqueue(f *eth.Frame) bool {
	if p.queueBytes+f.Size > queueCapBytes {
		p.dropped++
		return false
	}
	p.enqueued++
	if p.owner.net.cfg.PTPPriority && f.Proto == eth.ProtoPTPEvent {
		p.prio = append(p.prio, f)
	} else {
		p.queue = append(p.queue, f)
	}
	p.queueBytes += f.Size
	if !p.busy {
		p.startTx()
	}
	return true
}

func (p *egressPort) startTx() {
	var f *eth.Frame
	if len(p.prio) > 0 {
		f = p.prio[0]
		p.prio = p.prio[1:]
	} else {
		f = p.queue[0]
		p.queue = p.queue[1:]
	}
	p.queueBytes -= f.Size
	p.busy = true

	n := p.owner.net
	now := n.Sch.Now()
	if p.owner.node.Kind == topo.Host && f.Hops == 0 {
		// Hardware TX timestamp: first bit leaving the source NIC.
		f.TxStart = now
		if f.OnTxStart != nil {
			f.OnTxStart(now)
		}
	}
	if f.TCPending {
		// Perfect transparent clock: residence measured through to the
		// start of serialization, including all queue wait.
		f.CorrectionPs += int64(now - f.TCIngress)
		f.TCPending = false
	}
	ser := profile.ByteTime(f.Size)
	// First bit hits the wire now; the receiver sees it after the
	// propagation delay and decides when the frame is usable.
	p.wire.Send(func() { n.elements[p.peerNode].firstBitArrival(f, ser) })
	// Serialization complete: the port may start the next frame after
	// the minimum interpacket gap.
	ipg := profile.ByteTime(phy.MinInterpacketIdles)
	n.Sch.After(ser+ipg, func() {
		p.busy = false
		if len(p.queue) > 0 || len(p.prio) > 0 {
			p.startTx()
		}
	})
}

// firstBitArrival handles the leading edge of a frame at an element.
func (el *element) firstBitArrival(f *eth.Frame, ser sim.Time) {
	n := el.net
	if el.node.Kind == topo.Host {
		// NICs receive the whole frame before handing it up; the RX
		// hardware timestamp is the last-bit arrival.
		n.Sch.After(ser, func() { el.deliver(f) })
		return
	}
	// Switch: forward after the header (cut-through; a frame shorter
	// than the header once it is whole), plus pipeline delay.
	wait := min(profile.ByteTime(headerBytes), ser)
	ingress := n.Sch.Now()
	n.Sch.After(wait+procDelay, func() {
		f.Hops++
		egress := el.portToward(f.Dst)
		if egress == nil {
			return // destination unreachable (should not happen)
		}
		if f.Proto == eth.ProtoPTPEvent {
			el.applyTransparentClock(f, ingress)
		}
		egress.enqueue(f)
	})
}

// applyTransparentClock adds the switch's residence-time estimate to the
// frame's correction field, per the configured TC model. ingress is the
// leading-edge arrival; the frame is about to be enqueued at egress.
func (el *element) applyTransparentClock(f *eth.Frame, ingress sim.Time) {
	n := el.net
	switch n.cfg.TC {
	case TCOff:
		return
	case TCRealistic:
		// Corrects the calibrated pipeline latency only: the wait the
		// frame is about to suffer in the egress queue goes unmeasured,
		// so under congestion the correction undershoots by the queue
		// delay — the degradation the paper observed.
		f.CorrectionPs += int64(n.Sch.Now() - ingress)
	case TCPerfect:
		// Defer the correction until serialization starts so the true
		// queue wait is included; see egressPort.startTx.
		f.TCIngress = ingress
		f.TCPending = true
	}
	// Timestamp quantization, both modes.
	f.CorrectionPs += n.rng.Int64N(2*tcQuantPs+1) - tcQuantPs
}

func (el *element) deliver(f *eth.Frame) {
	el.delivered++
	if h := el.handlers[f.Proto]; h != nil {
		h(f, el.net.Sch.Now())
	}
}
