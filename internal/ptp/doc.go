// Package ptp implements the IEEE 1588 Precise Time Protocol baseline
// the paper evaluates against (§2.4.2, §6): a grandmaster disciplined to
// true time, clients with free-running PTP hardware clocks (PHCs),
// hardware timestamping with quantization jitter, two-step Sync /
// Follow_Up, Delay_Req / Delay_Resp, sample filtering and a PI servo.
// It runs over the packet fabric (internal/fabric), so every precision
// artifact under load is caused by real queueing.
package ptp

import (
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/swclock"
)

// phc is a PTP hardware clock: a steerable clock on the NIC.
type phc = swclock.Clock

// newPHC creates a hardware clock with the given true oscillator error.
func newPHC(sch *sim.Scheduler, hwPPM float64) *phc {
	return swclock.New(sch, hwPPM)
}
