package discipline

import "math"

// pll is an Ntimed-style proportional-integral phase-locked loop: each
// calibration measures the phase error between the predicted and
// latched counter, corrects the anchor by kp of it, and integrates
// ki of the implied frequency error into the ratio. With pllKP and
// pllKI the closed loop contracts phase error by (1-kp-ki) per sample
// and pure frequency error by (1-ki), so acquisition from a cold
// nominal ratio takes a few tens of samples.
type pll struct {
	nominal float64

	m      Model
	n      uint64 // samples since reset
	resid  float64
	ppmErr float64
	drops  uint64
}

const (
	// pllColdSlackPPM is the frequency slack reported before the loop
	// locks: it must cover the worst-case nominal-ratio error (TSC
	// trim plus oscillator offset plus DTP rate pull, each tens of ppm).
	pllColdSlackPPM = 150
	// pllLockSamples is how many samples the loop needs before its
	// adaptive slack estimate is trusted.
	pllLockSamples = 8
	// pllResidGain smooths the absolute phase-residual envelope.
	pllResidGain = 0.125
	// pllErrMult scales the residual envelope into the reported anchor
	// error bound (an EWMA of |e| underestimates the tail; 4x covers
	// p99.9 for the near-Gaussian latch noise).
	pllErrMult = 4
	// pllSlackMult scales the smoothed per-interval frequency mismatch
	// into the reported slack; pllFloorSlackPPM is its floor.
	pllSlackMult     = 6
	pllFloorSlackPPM = 5
)

func newPLL(nominalRatio float64) *pll {
	d := &pll{nominal: nominalRatio}
	d.Reset()
	return d
}

func (d *pll) Name() string { return "pll" }

func (d *pll) Feed(s Sample) Model {
	d.m.Dropped = false
	if !d.m.Valid {
		d.m = Model{
			Valid: true, DTP: s.DTP, TSC: s.TSC, Ratio: d.nominal,
			ErrUnits: s.LatchErrPs * d.nominal, SlackPPM: pllColdSlackPPM,
		}
		d.n = 1
		return d.m
	}
	dt := s.TSC - d.m.TSC
	if dt <= 0 {
		// A non-advancing TSC sample carries no phase information.
		d.m.Dropped = true
		d.drops++
		return d.m
	}
	pred := d.m.DTP + dt*d.m.Ratio
	e := s.DTP - pred // phase error, counter units
	d.m.Ratio += pllKI * (e / dt)
	d.m.DTP = pred + pllKP*e
	d.m.TSC = s.TSC

	ae := math.Abs(e)
	ppm := ae / dt / d.m.Ratio * 1e6 // frequency mismatch implied by this interval
	if d.n == 1 {
		d.resid, d.ppmErr = ae, ppm
	} else {
		d.resid += pllResidGain * (ae - d.resid)
		d.ppmErr += pllResidGain * (ppm - d.ppmErr)
	}
	d.n++

	d.m.ErrUnits = s.LatchErrPs*d.m.Ratio + pllErrMult*d.resid
	if d.n < pllLockSamples {
		d.m.SlackPPM = pllColdSlackPPM
	} else {
		d.m.SlackPPM = math.Max(pllFloorSlackPPM, pllSlackMult*d.ppmErr)
	}
	return d.m
}

func (d *pll) Model() Model { return d.m }

func (d *pll) Reset() {
	d.m = Model{Ratio: d.nominal, SlackPPM: pllColdSlackPPM}
	d.n, d.resid, d.ppmErr = 0, 0, 0
}

func (d *pll) Dropped() uint64 { return d.drops }
