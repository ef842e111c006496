package phy

import (
	"fmt"

	"github.com/dtplab/dtp/internal/sim"
)

// Speed identifies an Ethernet line rate.
type Speed int

const (
	Speed1G Speed = iota
	Speed10G
	Speed40G
	Speed100G
)

func (s Speed) String() string {
	switch s {
	case Speed1G:
		return "1G"
	case Speed10G:
		return "10G"
	case Speed40G:
		return "40G"
	case Speed100G:
		return "100G"
	default:
		return fmt.Sprintf("Speed(%d)", int(s))
	}
}

// BaseTickFs is the greatest common tick of all supported speeds:
// 0.32 ns. Counting in this unit and incrementing by a per-speed delta
// lets mixed-rate networks share one counter domain (§7, Table 2).
const BaseTickFs = 320_000

// Profile captures the PHY parameters of one Ethernet speed — the rows of
// Table 2 in the paper.
type Profile struct {
	Speed     Speed
	DataGbps  float64 // MAC data rate
	Encoding  string  // line coding
	WidthBits int     // datapath width at the PCS/MAC interface
	FreqMHz   float64 // PCS clock frequency
	PeriodFs  int64   // PCS clock period, femtoseconds
	// Delta is the counter increment per PCS clock tick when counting in
	// BaseTickFs units, so counters at different speeds advance at the
	// same rate: Delta * BaseTickFs == PeriodFs.
	Delta int64
}

// Profiles lists the supported speeds, reproducing Table 2.
var Profiles = []Profile{
	{Speed1G, 1, "8b/10b", 8, 125, 8_000_000, 25},
	{Speed10G, 10, "64b/66b", 32, 156.25, 6_400_000, 20},
	{Speed40G, 40, "64b/66b", 64, 625, 1_600_000, 5},
	{Speed100G, 100, "64b/66b", 64, 1562.5, 640_000, 2},
}

// BaseProfile returns the 0.32 ns common-base clock profile used by
// mixed-speed networks (§7): every device's counter logic runs in this
// domain, and each port advances by its speed's Delta base ticks per
// port cycle. It is not a line rate of its own.
func BaseProfile() Profile {
	return Profile{
		Speed:    Speed(-1),
		Encoding: "base",
		FreqMHz:  3125,
		PeriodFs: BaseTickFs,
		Delta:    1,
	}
}

// ProfileFor returns the profile for a speed.
func ProfileFor(s Speed) Profile {
	for _, p := range Profiles {
		if p.Speed == s {
			return p
		}
	}
	panic(fmt.Sprintf("phy: unknown speed %v", s))
}

// tickPeriod returns the PCS clock period as simulated time (rounded to
// ps; exact for all supported speeds).
func (p Profile) tickPeriod() sim.Time {
	return sim.Femto(p.PeriodFs)
}

// ByteTime returns the serialization time of n octets at this speed.
func (p Profile) ByteTime(n int) sim.Time {
	// n octets * 8 bits / (DataGbps * 1e9 bits/s), in ps.
	return sim.Time(float64(n) * 8 * 1000 / p.DataGbps)
}

// Pipeline delays: the deterministic number of PCS clock cycles a block
// spends between the DTP sublayer and the wire. These defaults place the
// measured one-way delay of a 10 m cable at 43–45 cycles, matching the
// deployment in §6.1 of the paper (DE5-Net boards, 10 m twinax).
const (
	// DefaultTxPipelineTicks covers encoder, scrambler, and gearbox on
	// the transmit path.
	DefaultTxPipelineTicks = 17
	// DefaultRxPipelineTicks covers block sync, descrambler, and decoder
	// on the receive path.
	DefaultRxPipelineTicks = 18
)
