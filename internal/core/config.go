// Package core implements the Datacenter Time Protocol — the paper's
// primary contribution. Every network port runs Algorithm 1 (INIT /
// INIT-ACK one-way-delay measurement, then periodic BEACON
// resynchronization); every multi-port device runs Algorithm 2 (the
// global counter is the max of the local counters); BEACON-JOIN handles
// devices and partitions joining a running network; BEACON-MSB carries
// the upper half of the 106-bit counter.
//
// The protocol operates on counters driven by free-running oscillators
// (internal/xo) and exchanges messages embedded in idle /E/ blocks
// (internal/phy) across wires with propagation delay and bit errors
// (internal/link). There are no Ethernet packets anywhere in this
// package: DTP's network overhead is exactly zero, as in the paper.
package core

import (
	"fmt"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
)

// simTime is a local alias to keep signatures in this package short.
type simTime = sim.Time

// Config holds protocol and PHY-model parameters. The zero value is not
// usable; call DefaultConfig.
type Config struct {
	// Profile selects the Ethernet speed (Table 2). Default 10 GbE.
	Profile phy.Profile

	// UnitsPerTick is the counter increment per PCS clock tick. 1 for a
	// homogeneous 10 GbE network (the paper's deployment); set it to
	// Profile.Delta to count in 0.32 ns base units for mixed-speed
	// networks (§7).
	UnitsPerTick uint64

	// BeaconIntervalTicks is the resynchronization period in ticks of
	// the sender's clock. The paper uses 200 (every MTU-frame gap) and
	// 1200 (jumbo); the analysis requires < 5000 for the two-tick bound.
	BeaconIntervalTicks uint64

	// AlphaUnits is the α subtracted from the measured RTT before
	// halving (T2 of Algorithm 1), compensating for the nondeterministic
	// clock-domain-crossing delays so the measured one-way delay never
	// exceeds the true delay. The paper derives α = 3.
	AlphaUnits int64

	// GuardUnits is the bit-error guard: BEACON messages moving the
	// counter forward by more than this many units are ignored
	// (§3.2 "Handling failures" — "off by more than eight").
	GuardUnits int64

	// Parity enables the even-parity bit over the three least
	// significant payload bits, trading one payload bit for error
	// detection.
	Parity bool

	// FragmentedMessages selects the 1 GbE adaptation (§7): a message
	// is split across four consecutive idle ordered sets (8b/10b has no
	// 56-bit idle block). The standard's 12-byte interpacket gap fits a
	// whole message, so fragments always travel back to back.
	FragmentedMessages bool

	// CDCMaxExtraTicks bounds the synchronization-FIFO delay when a
	// message crosses from the recovered (RX) clock domain into the
	// local domain: 0..CDCMaxExtraTicks whole local ticks are added on
	// top of edge alignment. The standard two-flop synchronizer gives 1.
	// AlphaUnits, GuardUnits and CDCMaxExtraTicks stay fields although
	// the protocol runs one value of each (per speed): dtpexp's α, guard
	// and CDC ablations vary them.
	CDCMaxExtraTicks int

	// WanderInterval and WanderStepPPB configure slow oscillator drift.
	// Zero disables wander.
	WanderInterval sim.Time
	WanderStepPPB  float64

	// BER is the per-bit error rate on every wire.
	BER float64

	// Hardened enables the Byzantine-hardened protocol mode. Plain DTP
	// adopts max(local, remote) unconditionally, so one device reporting
	// an inflated counter poisons the whole fabric. Hardened mode adds
	// per-link-session bounded-jump admission (remote advances must stay
	// within elapsed + slack + an oscillator-budget term since the
	// session baseline), a quarantine state with a re-INIT escape hatch
	// for ports whose peers keep failing admission, and a quorum
	// combiner that refuses large session-initial adoptions unless the
	// device's other synced ports corroborate them. On a fault-free
	// network the admission never fires, so hardened and plain runs are
	// tick-identical; the price is that two long-diverged live
	// partitions no longer auto-merge (see DESIGN.md "Threat model").
	// The mode's parameters are the constants at the top of harden.go.
	Hardened bool

	// Master, when it names a device, enables the §5.4 extension
	// ("following the fastest clock"): instead of max-coupling, devices
	// form a spanning tree rooted at Master and each follows the remote
	// counter of its parent — jumping forward when behind, stalling when
	// ahead. The network then tracks the master's oscillator rather than
	// the fastest oscillator, at the cost of a single point of reference.
	Master string
}

// DefaultConfig returns the configuration matching the paper's testbed:
// 10 GbE, beacon every 200 ticks, α = 3, eight-tick guard.
func DefaultConfig() Config {
	return Config{
		Profile:             phy.ProfileFor(phy.Speed10G),
		UnitsPerTick:        1,
		BeaconIntervalTicks: 200,
		AlphaUnits:          3,
		GuardUnits:          8,
		CDCMaxExtraTicks:    1,
	}
}

// SetSpeed clocks the whole network at one Ethernet speed (Table 2):
// the device clock is that speed's port clock, counters advance Delta
// 0.32 ns base units per tick, α and the guard keep their 3- and 8-tick
// meaning, and 1 GbE — whose 8b/10b line code has no 56-bit idle block
// — sends messages as ordered-set fragments (§7).
func (c *Config) SetSpeed(p phy.Profile) {
	c.Profile = p
	c.UnitsPerTick = uint64(p.Delta)
	c.AlphaUnits = 3 * p.Delta
	c.GuardUnits = 8 * p.Delta
	c.FragmentedMessages = p.Speed == phy.Speed1G
}

func (c *Config) validate() error {
	if c.Profile.PeriodFs <= 0 {
		return fmt.Errorf("core: config has no PHY profile")
	}
	if c.UnitsPerTick == 0 {
		return fmt.Errorf("core: UnitsPerTick must be >= 1")
	}
	if c.BeaconIntervalTicks == 0 {
		return fmt.Errorf("core: beacon interval must be >= 1 tick")
	}
	if c.CDCMaxExtraTicks < 0 {
		return fmt.Errorf("core: negative CDC bound")
	}
	if !(c.BER >= 0 && c.BER < 1) { // written so that NaN fails too
		return fmt.Errorf("core: BER %v outside [0, 1)", c.BER)
	}
	return nil
}

// UnitFs returns the duration of one counter unit in femtoseconds.
func (c *Config) UnitFs() int64 {
	return c.Profile.PeriodFs / int64(c.UnitsPerTick)
}
