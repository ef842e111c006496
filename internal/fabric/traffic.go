package fabric

import (
	"fmt"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/sim"
)

// TrafficGen produces iperf-style UDP load between two hosts: bursts of
// back-to-back frames (as interrupt-coalescing senders emit them) paced
// to a target average rate. Burstiness is what makes moderate average
// load produce tens-of-microseconds transient queues — the condition
// behind Figure 6e.
type TrafficGen struct {
	net  *Network
	rng  *sim.RNG
	stop bool

	Src, Dst  int
	FrameSize int
	RateGbps  float64
	Burst     int // frames per burst

	sent uint64
}

// NewTrafficGen creates a generator; call Start to begin.
func NewTrafficGen(n *Network, src, dst int, frameSize int, rateGbps float64, burst int, seed uint64) *TrafficGen {
	if burst < 1 {
		burst = 1
	}
	return &TrafficGen{
		net: n, rng: sim.NewRNG(seed, fmt.Sprintf("traffic/%d-%d", src, dst)),
		Src: src, Dst: dst, FrameSize: frameSize, RateGbps: rateGbps, Burst: burst,
	}
}

// Start begins emitting bursts after a small random phase.
func (g *TrafficGen) Start() {
	g.stop = false
	g.net.Sch.After(g.rng.UniformTime(0, g.gap()), g.emit)
}

// Stop halts the generator after the current burst.
func (g *TrafficGen) Stop() { g.stop = true }

// Sent returns frames emitted so far.
func (g *TrafficGen) Sent() uint64 { return g.sent }

// gap returns the average time between bursts for the target rate.
func (g *TrafficGen) gap() sim.Time {
	bitsPerBurst := float64(g.FrameSize*8*g.Burst) * 1000 // in ps at 1 Gbps
	return sim.Time(bitsPerBurst / g.RateGbps)
}

func (g *TrafficGen) emit() {
	if g.stop {
		return
	}
	for i := 0; i < g.Burst; i++ {
		g.net.Send(&eth.Frame{Src: g.Src, Dst: g.Dst, Size: g.FrameSize, Proto: eth.ProtoBulk})
		g.sent++
	}
	// Pace to the average rate with ±25% jitter so flows do not phase
	// lock.
	gap := g.gap()
	next := g.rng.UniformTime(gap*3/4, gap*5/4)
	g.net.Sch.After(next, g.emit)
}

// SprayGen reproduces the paper's load pattern (§6.1): "each server
// occasionally generated MTU-sized UDP packets destined for other
// servers". Each burst goes to a random destination, so several sources
// intermittently converge on the same egress — the mechanism that
// produces the deep transient queues behind Figures 6e–f.
type SprayGen struct {
	net  *Network
	rng  *sim.RNG
	stop bool

	Src       int
	Dsts      []int
	FrameSize int
	RateGbps  float64
	Burst     int

	sent uint64
}

// NewSprayGen creates a sprayer from src across the destination set.
func NewSprayGen(n *Network, src int, dsts []int, rateGbps float64, burst int, seed uint64) *SprayGen {
	if len(dsts) == 0 {
		panic("fabric: spray needs destinations")
	}
	if burst < 1 {
		burst = 1
	}
	return &SprayGen{
		net: n, rng: sim.NewRNG(seed, fmt.Sprintf("spray/%d", src)),
		Src: src, Dsts: dsts, FrameSize: eth.MTUFrame, RateGbps: rateGbps, Burst: burst,
	}
}

// Start begins spraying.
func (g *SprayGen) Start() {
	g.stop = false
	g.net.Sch.After(g.rng.UniformTime(0, g.gap()), g.emit)
}

// Stop halts the sprayer.
func (g *SprayGen) Stop() { g.stop = true }

// Sent returns frames emitted.
func (g *SprayGen) Sent() uint64 { return g.sent }

func (g *SprayGen) gap() sim.Time {
	bitsPerBurst := float64(g.FrameSize*8*g.Burst) * 1000
	return sim.Time(bitsPerBurst / g.RateGbps)
}

func (g *SprayGen) emit() {
	if g.stop {
		return
	}
	dst := g.Dsts[g.rng.IntN(len(g.Dsts))]
	if dst == g.Src {
		dst = g.Dsts[(g.rng.IntN(len(g.Dsts))+1)%len(g.Dsts)]
	}
	for i := 0; i < g.Burst && dst != g.Src; i++ {
		g.net.Send(&eth.Frame{Src: g.Src, Dst: dst, Size: g.FrameSize, Proto: eth.ProtoBulk})
		g.sent++
	}
	gap := g.gap()
	g.net.Sch.After(g.rng.UniformTime(gap*3/4, gap*5/4), g.emit)
}
