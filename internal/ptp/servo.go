package ptp

import "github.com/dtplab/dtp/internal/sim"

// servo is the PI controller steering a PHC from filtered offset
// samples, the structure used by ptp4l. Offsets are in picoseconds;
// output is a frequency correction in ppb.
type servo struct {
	integral float64 // ppb
}

// servoMaxPPB clamps both the integral and the output.
const servoMaxPPB float64 = 500_000

func (s *servo) reset() { s.integral = 0 }

// update consumes one offset sample (ps) observed over the given sync
// interval and returns the new frequency adjustment (ppb).
//
// Scaling: an offset of X ns accumulated over an interval of T seconds
// corresponds to a rate error of X/T ppb, so the proportional and
// integral terms are normalized by the interval — this keeps the same
// gains stable under time compression.
func (s *servo) update(offsetPs float64, interval sim.Time) float64 {
	sec := interval.Seconds()
	if sec <= 0 {
		sec = 1
	}
	offNsPerSec := offsetPs / 1000 / sec
	s.integral += servoKi * offNsPerSec
	s.integral = min(max(s.integral, -servoMaxPPB), servoMaxPPB)
	return min(max(-(servoKp*offNsPerSec+s.integral), -servoMaxPPB), servoMaxPPB)
}
