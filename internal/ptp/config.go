package ptp

import (
	"math"

	"github.com/dtplab/dtp/internal/sim"
)

// Config holds PTP deployment parameters. Defaults mirror the paper's
// Timekeeper setup: Sync once per second, two Delay_Reqs per 1.5 s,
// hardware timestamping on every NIC.
type Config struct {
	// SyncInterval is the grandmaster's Sync cadence (paper: 1 s).
	SyncInterval sim.Time
	// DelayReqInterval is the client's Delay_Req cadence (paper: two
	// per 1.5 s).
	DelayReqInterval sim.Time

	// WanderInterval / WanderStepPPB model slow oscillator drift of
	// client PHCs. Zero disables.
	WanderInterval sim.Time
	WanderStepPPB  float64
}

// The NIC and daemon model no experiment varies. The floats are typed so
// every product with one is float64 arithmetic.
const (
	// timestampJitterNs is the half-width of uniform hardware timestamp
	// error at NICs: quantization, PHY latching point and PLL jitter.
	// Tens of nanoseconds matches the hundreds-of-ns idle precision
	// reported for ConnectX-3 + Timekeeper.
	timestampJitterNs float64 = 40

	// filterWindow is the size of the sample window from which the
	// minimum-delay sample is selected (delay-based filtering, as
	// production daemons do).
	filterWindow = 8

	// servoKp and servoKi are the PI servo gains applied to the raw
	// offset (in ppb per ns of offset).
	servoKp float64 = 0.7
	servoKi float64 = 0.3

	// stepThresholdNs: offsets beyond this (1 ms) are corrected by
	// stepping the clock instead of slewing (startup).
	stepThresholdNs float64 = 1e6

	// ppmRange is the half-width of client PHC oscillator error.
	ppmRange float64 = 50
)

// DefaultConfig returns the paper-matching configuration.
func DefaultConfig() Config {
	return Config{
		SyncInterval:     sim.Second,
		DelayReqInterval: 750 * sim.Millisecond,
		WanderInterval:   100 * sim.Millisecond,
		WanderStepPPB:    30,
	}
}

// compression is the time scale of compressed-time runs: a paper hour
// at 1 Hz sync becomes simulated seconds at 50 Hz. Documented in
// EXPERIMENTS.md.
const compression = 50

// Compressed scales the protocol's time constants by 1/compression so
// long experiments can run in compressed simulated time while preserving
// the ratio of sync cadence to queue dynamics.
func (c Config) Compressed() Config {
	c.SyncInterval /= compression
	c.DelayReqInterval /= compression
	if c.WanderInterval > 0 {
		c.WanderInterval /= compression
		// Random-walk variance accumulates linearly in time: stepping
		// compression× more often with the same step would inflate
		// wander by √compression, so scale the step down to preserve
		// per-second variance.
		c.WanderStepPPB /= math.Sqrt(compression)
	}
	return c
}
