package discipline

// movingAverage is the paper's estimator (Figure 7), extracted from
// internal/daemon verbatim: the anchor is always the latest sample, and
// the frequency ratio is an EWMA of instantaneous ratios measured
// against an anchor window calibrations old — the long baseline divides
// per-read latch noise into the ratio.
type movingAverage struct {
	nominal float64

	history []Sample
	m       Model
}

// maSlackPPM bounds the moving-average frequency-ratio error: the ratio
// is an EWMA over a window-calibration baseline, so per-read latch
// noise divided by the baseline leaves well under a ppm in steady
// state; PCIe spike samples push it to a few ppm transiently. (This is
// the daemon's historical ratioSlackPPM constant.)
const maSlackPPM = 5

func newMovingAverage(nominalRatio float64) *movingAverage {
	d := &movingAverage{nominal: nominalRatio}
	d.Reset()
	return d
}

func (d *movingAverage) Name() string { return "ma" }

func (d *movingAverage) Feed(s Sample) Model {
	d.history = append(d.history, s)
	if len(d.history) > maWindow+1 {
		d.history = d.history[1:]
	}
	if anchor := d.history[0]; s.TSC > anchor.TSC {
		instRatio := (s.DTP - anchor.DTP) / (s.TSC - anchor.TSC)
		d.m.Ratio += maGain * (instRatio - d.m.Ratio)
	}
	d.m.DTP = s.DTP
	d.m.TSC = s.TSC
	d.m.ErrUnits = s.LatchErrPs * d.m.Ratio
	d.m.Valid = true
	return d.m
}

func (d *movingAverage) Model() Model { return d.m }

func (d *movingAverage) Reset() {
	d.history = d.history[:0]
	d.m = Model{Ratio: d.nominal, SlackPPM: maSlackPPM}
}

func (d *movingAverage) Dropped() uint64 { return 0 }
