package fabric

import (
	"fmt"

	"github.com/dtplab/dtp/internal/eth"
	"github.com/dtplab/dtp/internal/sim"
)

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

	sent uint64
}

// sprayBurst is how many back-to-back frames each burst sends.
const sprayBurst = 32

// NewSprayGen creates a sprayer from src across the destination set.
func NewSprayGen(n *Network, src int, dsts []int, rateGbps float64, seed uint64) *SprayGen {
	if len(dsts) == 0 {
		panic("fabric: spray needs destinations")
	}
	return &SprayGen{
		net: n, rng: sim.NewRNG(seed, fmt.Sprintf("spray/%d", src)),
		Src: src, Dsts: dsts, FrameSize: eth.MTUFrame, RateGbps: rateGbps,
	}
}

// Start begins spraying.
func (g *SprayGen) Start() {
	g.stop = false
	g.net.Sch.After(g.rng.UniformTime(0, g.gap()), g.emit)
}

func (g *SprayGen) gap() sim.Time {
	bitsPerBurst := float64(g.FrameSize*8*sprayBurst) * 1000
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
	for i := 0; i < sprayBurst && dst != g.Src; i++ {
		g.net.Send(&eth.Frame{Src: g.Src, Dst: dst, Size: g.FrameSize, Proto: eth.ProtoBulk})
		g.sent++
	}
	gap := g.gap()
	g.net.Sch.After(g.rng.UniformTime(gap*3/4, gap*5/4), g.emit)
}
