package discipline

import "math"

// theilSen fits the counter/TSC line with the Theil-Sen estimator over
// a sliding window: the ratio is the median of all pairwise slopes and
// the anchor is the median intercept. The median makes the fit immune
// to any minority of PCIe contention spikes (breakdown point ~29%)
// without explicitly detecting them.
type theilSen struct {
	nominal float64

	hist  []Sample
	m     Model
	buf   []float64 // scratch for medians
	drops uint64
}

const (
	// tsColdSlackPPM is reported until the window holds enough pairs
	// for the slope spread to mean anything.
	tsColdSlackPPM = 150
	tsLockSamples  = 6
	// tsMADToSigma converts a median absolute deviation to a robust
	// standard deviation for Gaussian-ish noise.
	tsMADToSigma = 1.4826
	// tsErrMult scales the robust residual deviation into the anchor
	// error bound; tsSlackMult does the same for the slope spread.
	tsErrMult       = 4
	tsSlackMult     = 4
	tsFloorSlackPPM = 5
)

func newTheilSen(nominalRatio float64) *theilSen {
	d := &theilSen{nominal: nominalRatio}
	d.Reset()
	return d
}

func (d *theilSen) Name() string { return "theilsen" }

func (d *theilSen) Feed(s Sample) Model {
	d.m.Dropped = false
	if n := len(d.hist); n > 0 && s.TSC <= d.hist[n-1].TSC {
		d.m.Dropped = true
		d.drops++
		return d.m
	}
	d.hist = append(d.hist, s)
	if len(d.hist) > tsWindow {
		d.hist = d.hist[1:]
	}
	n := len(d.hist)
	if n == 1 {
		d.m = Model{
			Valid: true, DTP: s.DTP, TSC: s.TSC, Ratio: d.nominal,
			ErrUnits: s.LatchErrPs * d.nominal, SlackPPM: tsColdSlackPPM,
		}
		return d.m
	}

	// Median of all pairwise slopes. Coordinates are centered on the
	// newest sample so float64 keeps sub-unit precision.
	d.buf = d.buf[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dt := d.hist[j].TSC - d.hist[i].TSC
			if dt > 0 {
				d.buf = append(d.buf, (d.hist[j].DTP-d.hist[i].DTP)/dt)
			}
		}
	}
	ratio := median(d.buf)
	slopeMAD := d.madAbout(ratio)

	// Median intercept at the newest sample's TSC.
	d.buf = d.buf[:0]
	for i := 0; i < n; i++ {
		d.buf = append(d.buf, d.hist[i].DTP-ratio*(d.hist[i].TSC-s.TSC))
	}
	anchor := median(d.buf)

	// Robust residual deviation about the fit.
	d.buf = d.buf[:0]
	for i := 0; i < n; i++ {
		pred := anchor + ratio*(d.hist[i].TSC-s.TSC)
		d.buf = append(d.buf, math.Abs(d.hist[i].DTP-pred))
	}
	residMAD := median(d.buf)

	d.m.Valid = true
	d.m.Ratio = ratio
	d.m.DTP = anchor
	d.m.TSC = s.TSC
	d.m.ErrUnits = s.LatchErrPs*ratio + tsErrMult*tsMADToSigma*residMAD
	if n < tsLockSamples {
		d.m.SlackPPM = tsColdSlackPPM
	} else {
		slackPPM := tsSlackMult * tsMADToSigma * slopeMAD / ratio * 1e6
		d.m.SlackPPM = math.Max(tsFloorSlackPPM, math.Min(tsColdSlackPPM, slackPPM))
	}
	return d.m
}

// madAbout returns the median absolute deviation of d.buf about c,
// consuming d.buf as scratch.
func (d *theilSen) madAbout(c float64) float64 {
	for i, v := range d.buf {
		d.buf[i] = math.Abs(v - c)
	}
	return median(d.buf)
}

func (d *theilSen) Model() Model { return d.m }

func (d *theilSen) Reset() {
	d.hist = d.hist[:0]
	d.m = Model{Ratio: d.nominal, SlackPPM: tsColdSlackPPM}
}

func (d *theilSen) Dropped() uint64 { return d.drops }
