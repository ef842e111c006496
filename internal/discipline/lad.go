package discipline

import "math"

// lad fits the counter/TSC line by least absolute deviations over a
// sliding window (iteratively reweighted least squares with 1/|r|
// weights, the standard IRLS reduction of the L1 fit), then applies
// chrony-style sample dropping: samples whose residual exceeds dropK
// robust standard deviations of the fit are removed from the window
// and the survivors refit. The newest two samples are always retained
// so a genuine regime change (frequency step) can accumulate evidence
// instead of being vetoed forever by the incumbent fit.
//
// Dropping is a double-edged sword — exactly the phenomenon the
// scion-time LAD notes describe: with an aggressive dropK, heavy-tailed
// PCIe noise keeps the window short, the short-baseline ratio estimate
// wobbles, the wobble manufactures fresh "outliers", and the loop
// oscillates without ever settling. TestLADAggressiveDroppingOscillates
// reproduces it deterministically.
type lad struct {
	window  int
	dropK   float64
	nominal float64

	hist  []Sample
	m     Model
	w     []float64 // IRLS weights
	res   []float64 // residuals of the last fit
	buf   []float64 // scratch for medians
	drops uint64
}

const (
	// ladIters is the fixed IRLS iteration count: enough to converge
	// the L1 fit on a ≤48-sample window, and deterministic.
	ladIters = 10
	// ladEps floors |residual| in the IRLS weight 1/|r| so exact-fit
	// points don't produce infinite weights (counter units).
	ladEps = 1e-3
	// ladScaleFloor keeps the outlier cutoff meaningful when the window
	// fits perfectly (counter units).
	ladScaleFloor = 1e-3
	// ladProtect newest samples are exempt from dropping; ladMinKeep is
	// the smallest window dropping may leave behind.
	ladProtect = 2
	ladMinKeep = 4
	// ladMADToSigma converts a median absolute deviation to a robust
	// standard deviation.
	ladMADToSigma = 1.4826
	// Error-bound shaping, as in the other disciplines.
	ladColdSlackPPM  = 150
	ladLockSamples   = 6
	ladErrMult       = 4
	ladSlackMult     = 4
	ladFloorSlackPPM = 5
)

func newLAD(window int, dropK, nominalRatio float64) *lad {
	d := &lad{window: window, dropK: dropK, nominal: nominalRatio}
	d.Reset()
	return d
}

func (d *lad) Name() string { return "lad" }

func (d *lad) Feed(s Sample) Model {
	d.m.Dropped = false
	if n := len(d.hist); n > 0 && s.TSC <= d.hist[n-1].TSC {
		d.m.Dropped = true
		d.drops++
		return d.m
	}
	d.hist = append(d.hist, s)
	if len(d.hist) > d.window {
		d.hist = d.hist[1:]
	}
	if len(d.hist) == 1 {
		d.m = Model{
			Valid: true, DTP: s.DTP, TSC: s.TSC, Ratio: d.nominal,
			ErrUnits: s.LatchErrPs * d.nominal, SlackPPM: ladColdSlackPPM,
		}
		return d.m
	}

	ratio, anchor := d.fit(s)
	scale := d.residScale()

	// Chrony-style dropping: remove samples whose residual exceeds the
	// cutoff, refit the survivors. The newest ladProtect samples are
	// immune, and dropping never shrinks the window below ladMinKeep.
	if n := len(d.hist); n > ladMinKeep {
		cutoff := d.dropK * math.Max(scale, ladScaleFloor)
		kept := d.hist[:0]
		dropped := 0
		for i, smp := range d.hist {
			outlier := math.Abs(d.res[i]) > cutoff
			if outlier && i < n-ladProtect && n-dropped > ladMinKeep {
				dropped++
				continue
			}
			kept = append(kept, smp)
		}
		if dropped > 0 {
			d.hist = kept
			d.drops += uint64(dropped)
			d.m.Dropped = true
			ratio, anchor = d.fit(s)
			scale = d.residScale()
		}
	}

	n := len(d.hist)
	d.m.Valid = true
	d.m.Ratio = ratio
	d.m.DTP = anchor
	d.m.TSC = s.TSC
	d.m.ErrUnits = s.LatchErrPs*ratio + ladErrMult*scale
	if n < ladLockSamples {
		d.m.SlackPPM = ladColdSlackPPM
	} else {
		// Slope standard error of the (unweighted) window baseline.
		var sxx, xb float64
		for _, smp := range d.hist {
			xb += smp.TSC - s.TSC
		}
		xb /= float64(n)
		for _, smp := range d.hist {
			dx := smp.TSC - s.TSC - xb
			sxx += dx * dx
		}
		slackPPM := float64(ladColdSlackPPM)
		if sxx > 0 {
			slackPPM = ladSlackMult * math.Max(scale, ladScaleFloor) / math.Sqrt(sxx) / ratio * 1e6
		}
		d.m.SlackPPM = math.Max(ladFloorSlackPPM, math.Min(ladColdSlackPPM, slackPPM))
	}
	return d.m
}

// fit runs the IRLS L1 regression over d.hist in coordinates reduced
// about the reference sample (x = TSC-ref.TSC, y = DTP-ref.DTP minus
// the nominal-rate line, keeping float64 well conditioned), leaving
// per-sample residuals in d.res. It returns the fitted ratio and the
// fitted counter value at ref.TSC.
func (d *lad) fit(ref Sample) (ratio, anchor float64) {
	n := len(d.hist)
	if cap(d.w) < n {
		d.w = make([]float64, n)
		d.res = make([]float64, n)
	}
	d.w, d.res = d.w[:n], d.res[:n]
	for i := range d.w {
		d.w[i] = 1
	}
	x := func(i int) float64 { return d.hist[i].TSC - ref.TSC }
	y := func(i int) float64 { return d.hist[i].DTP - ref.DTP - d.nominal*x(i) }
	var slope, icept float64
	for it := 0; it < ladIters; it++ {
		var W, Sx, Sy float64
		for i := 0; i < n; i++ {
			W += d.w[i]
			Sx += d.w[i] * x(i)
			Sy += d.w[i] * y(i)
		}
		xb, yb := Sx/W, Sy/W
		var Sxx, Sxy float64
		for i := 0; i < n; i++ {
			dx := x(i) - xb
			Sxx += d.w[i] * dx * dx
			Sxy += d.w[i] * dx * (y(i) - yb)
		}
		if Sxx > 0 {
			slope = Sxy / Sxx
		} else {
			slope = 0
		}
		icept = yb - slope*xb
		for i := 0; i < n; i++ {
			d.res[i] = y(i) - (slope*x(i) + icept)
			d.w[i] = 1 / math.Max(math.Abs(d.res[i]), ladEps)
		}
	}
	return d.nominal + slope, ref.DTP + icept
}

// residScale returns the robust standard deviation of the last fit's
// residuals (scaled MAD about the fit line).
func (d *lad) residScale() float64 {
	d.buf = d.buf[:0]
	for _, r := range d.res {
		d.buf = append(d.buf, math.Abs(r))
	}
	return ladMADToSigma * median(d.buf)
}

func (d *lad) Model() Model { return d.m }

func (d *lad) Reset() {
	d.hist = d.hist[:0]
	d.m = Model{Ratio: d.nominal, SlackPPM: ladColdSlackPPM}
}

func (d *lad) Dropped() uint64 { return d.drops }
