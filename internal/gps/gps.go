// Package gps models GPS-disciplined clocks (§2.4.3): each equipped
// server reads true time through a receiver with a fixed per-receiver
// bias (antenna cable length, receiver calibration) plus white phase
// noise. The paper cites ~100 ns practical precision; pairwise offsets
// between two receivers here land in that range. GPS needs no network —
// which is exactly its scalability problem (Table 1: one receiver and
// roof cable per server).
package gps

import (
	"fmt"

	"github.com/dtplab/dtp/internal/sim"
)

// Receiver quality: a good timing receiver has a ±50 ns calibration
// bias and 20 ns read noise — about 100 ns pairwise, matching the paper.
const (
	// biasMaxPs bounds the fixed per-receiver bias, uniform ±.
	biasMaxPs = 50_000
	// noisePs is the standard deviation of white phase noise per read.
	noisePs = 20_000
)

// Receiver is one GPS-disciplined clock.
type Receiver struct {
	sch  *sim.Scheduler
	rng  *sim.RNG
	bias float64 // ps
}

// NewReceiver creates a receiver with a random fixed bias.
func NewReceiver(sch *sim.Scheduler, seed uint64, name string) *Receiver {
	rng := sim.NewRNG(seed, fmt.Sprintf("gps/%s", name))
	return &Receiver{
		sch:  sch,
		rng:  rng,
		bias: rng.Uniform(-biasMaxPs, biasMaxPs),
	}
}

// Read returns the receiver's view of true time (ps) at the current
// instant.
func (r *Receiver) Read() float64 {
	return float64(r.sch.Now()) + r.bias + r.rng.Normal(0, noisePs)
}
