// Package daemon models software access to the DTP counter (§5.1 and
// Figure 7): a per-server daemon reads the NIC's DTP counter over PCIe
// (memory-mapped I/O with long-tailed latency), disciplines a
// TSC-derived software clock to it, and serves get_DTP_counter()
// estimates by interpolation. The paper measures the raw estimate
// within ±16 ticks (~102 ns) of the hardware counter, and within
// ±4 ticks (~25.6 ns) after a 10-sample moving average.
//
// The estimator itself is pluggable: the daemon feeds raw calibration
// pairs to an internal/discipline Discipline (moving average by
// default, or PLL / Theil-Sen / LAD) and serves whatever model it
// maintains. See Options.Discipline.
package daemon

import (
	"fmt"
	"math"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/discipline"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/swclock"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Config models the host hardware.
type Config struct {
	// CalInterval is how often the daemon reads the NIC counter over
	// PCIe to recalibrate (paper: about once per second).
	CalInterval sim.Time
	// PCIeSigma is the shape of the lognormal MMIO read round-trip
	// latency around pcieMedian.
	PCIeSigma float64
	// PCIeSpikeP is the probability a read hits bus contention and
	// takes up to pcieSpike extra — the spikes visible in Figure 7a.
	PCIeSpikeP float64
	// All three stay fields: the façade's DaemonOptions and its callers
	// set other calibration cadences, and DisciplineSweep's pcie-jitter
	// scenario raises the PCIe noise.
}

// The host hardware no experiment varies.
const (
	// pcieMedian is the median of the lognormal MMIO read round-trip
	// latency; pcieSpike is the most a contended read adds.
	pcieMedian = 450 * sim.Nanosecond
	pcieSpike  = 1500 * sim.Nanosecond
	// tscPPM is the half-range of the CPU TSC frequency error relative
	// to nominal; invariant TSCs are stable but not perfectly accurate.
	tscPPM = 20
)

// DefaultConfig matches the paper's setup.
func DefaultConfig() Config {
	return Config{
		CalInterval: sim.Second,
		PCIeSigma:   0.15,
		PCIeSpikeP:  0.005,
	}
}

// Compressed scales the calibration interval by 1/k for compressed-time
// experiments.
func (c Config) Compressed(k int64) Config {
	if k > 1 {
		c.CalInterval /= sim.Time(k)
	}
	return c
}

// Options configures Attach, following the option-struct + Close()
// convention of dtp.System. The zero value reproduces the paper setup:
// DefaultConfig hardware and the moving-average discipline.
type Options struct {
	// Config models the host hardware; the zero value means
	// DefaultConfig().
	Config Config
	// Discipline selects and parameterizes the software-clock
	// estimator; the zero value means the paper's moving-average path
	// (discipline kind "ma").
	Discipline discipline.Config
}

// Daemon is the per-server DTP daemon.
type Daemon struct {
	dev *core.Device
	sch *sim.Scheduler
	rng *sim.RNG
	cfg Config

	tsc *swclock.Clock // invariant TSC as a ps-domain clock

	// The discipline owns all calibration state; the daemon holds a
	// copy of its latest model for lock-free-style reads on the serve
	// path (everything runs under the sim scheduler, but the model
	// copy also keeps EstimateAt free of interface calls).
	disc    discipline.Discipline
	model   discipline.Model
	nominal float64 // nominal counter units per TSC ps

	calCount uint64
	// lastRestarts mirrors dev.Restarts(): when the device power-cycles
	// its counter restarts from zero, so calibration history anchored to
	// the old counter domain is poison — the discipline is reset and
	// reacquires from scratch (the crash/rejoin fix).
	lastRestarts uint64
	resets       uint64

	stopped bool

	// OnSample, if set, receives offset_sw = estimate - hardware
	// counter, in units, at each calibration (the §6.2 measurement).
	OnSample func(offsetUnits float64)

	// Telemetry handles (nil when uninstrumented; see Instrument).
	cals     *telemetry.Counter
	offHist  *telemetry.Histogram
	gErr     *telemetry.Gauge
	gRatio   *telemetry.Gauge
	cDropped *telemetry.Counter
	cResets  *telemetry.Counter
	tr       *telemetry.Tracer
}

// Attach connects a daemon to a DTP device. The returned daemon is not
// yet calibrating; call Start. Close (or Stop) detaches it.
func Attach(dev *core.Device, o Options, seed uint64) (*Daemon, error) {
	cfg := o.Config
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	nominal := 1e3 / float64(dev.Clock().NominalPeriodFs())
	disc, err := o.Discipline.New(nominal)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	sch := dev.Clock().Scheduler()
	rng := sim.NewRNG(seed, fmt.Sprintf("daemon/%s", dev.Name()))
	d := &Daemon{
		dev: dev, sch: sch, rng: rng, cfg: cfg,
		tsc:          swclock.New(sch, rng.Uniform(-tscPPM, tscPPM)),
		disc:         disc,
		nominal:      nominal,
		lastRestarts: dev.Restarts(),
	}
	d.model = disc.Model()
	return d, nil
}

// Instrument attaches telemetry: a calibration counter, a software-
// offset histogram, per-discipline gauges (anchor error bound, ratio
// deviation from nominal) and counters (outlier drops, restart resets),
// all labeled with the host name, plus daemon_cal trace events
// (V1 = offset in milli-units, V2 = calibration count). Either
// argument may be nil.
func (d *Daemon) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	host := d.dev.Name()
	d.cals = reg.Counter("dtp_daemon_calibrations_total",
		"PCIe calibration reads completed by the DTP daemon.", "host", host)
	d.offHist = reg.Histogram("dtp_daemon_offset_units",
		"Daemon software offset (estimate - hardware counter) in counter units (Fig. 7).",
		telemetry.LinearBuckets(-20, 2, 21), "host", host)
	d.gErr = reg.Gauge("dtp_daemon_discipline_err_units",
		"Active discipline's self-reported anchor error bound, counter units.",
		"host", host, "discipline", d.disc.Name())
	d.gRatio = reg.Gauge("dtp_daemon_discipline_ratio_ppm",
		"Active discipline's frequency-ratio estimate, ppm deviation from nominal.",
		"host", host, "discipline", d.disc.Name())
	d.cDropped = reg.Counter("dtp_daemon_discipline_dropped_total",
		"Calibration samples rejected by the discipline's outlier logic.",
		"host", host, "discipline", d.disc.Name())
	d.cResets = reg.Counter("dtp_daemon_discipline_resets_total",
		"Discipline state resets triggered by device restarts.",
		"host", host, "discipline", d.disc.Name())
	d.tr = tr
}

// OffsetHistogram returns the instrumented software-offset histogram
// (nil until Instrument is called). Callers use it to report quantiles
// without wiring their own OnSample accumulators.
func (d *Daemon) OffsetHistogram() *telemetry.Histogram { return d.offHist }

// Start begins periodic calibration.
func (d *Daemon) Start() {
	d.stopped = false
	d.sch.After(d.rng.UniformTime(0, d.cfg.CalInterval), d.calibrate)
}

// Stop halts calibration (estimates keep extrapolating).
func (d *Daemon) Stop() { d.stopped = true }

// Calibrations returns how many PCIe reads have completed.
func (d *Daemon) Calibrations() uint64 { return d.calCount }

// readLatency draws one PCIe MMIO round-trip.
func (d *Daemon) readLatency() sim.Time {
	ns := d.rng.LogNormal(math.Log(float64(pcieMedian)), d.cfg.PCIeSigma)
	lat := sim.Time(ns)
	if d.rng.Bool(d.cfg.PCIeSpikeP) {
		lat += d.rng.UniformTime(0, pcieSpike)
	}
	return lat
}

// The NIC latches the counter somewhere within the PCIe read; the
// daemon assumes the window midpoint. The latch point stays within
// latchMidFrac ± latchHalfRangeFrac of the measured read duration (the
// kind of bound a NIC datasheet specifies), so the daemon can bound its
// own anchor error from the latency it just measured — the same move
// NTP makes with RTT/2.
const (
	latchMidFrac       = 0.5
	latchHalfRangeFrac = 0.1
)

// calibrate performs one MMIO read of the NIC's DTP counter and feeds
// the (tsc, dtp) pair to the active discipline.
func (d *Daemon) calibrate() {
	if d.stopped {
		return
	}
	issue := d.sch.Now()
	lat := d.readLatency()
	// The NIC latches the counter at some point within the read. The
	// daemon measures the read duration with the TSC and assumes the
	// midpoint; the latch point's deviation from the midpoint becomes
	// estimation error — the Figure 7a noise, largest on the PCIe
	// contention spikes.
	latchFrac := d.rng.Uniform(latchMidFrac-latchHalfRangeFrac, latchMidFrac+latchHalfRangeFrac)
	latchAt := issue + sim.Time(float64(lat)*latchFrac)
	latched := d.dev.GlobalCounterAt(latchAt)
	d.sch.At(issue+lat, func() {
		if r := d.dev.Restarts(); r != d.lastRestarts {
			// The counter restarted from zero while this read was in
			// flight or since the last calibration: every anchor in the
			// discipline belongs to the dead counter domain.
			d.lastRestarts = r
			d.resets++
			d.cResets.Inc()
			d.disc.Reset()
		}
		tscMid := d.tsc.At(issue + lat/2)
		wasDropped := d.disc.Dropped()
		d.model = d.disc.Feed(discipline.Sample{
			DTP:        float64(latched),
			TSC:        tscMid,
			LatchErrPs: latchHalfRangeFrac * float64(lat),
		})
		d.calCount++
		d.cals.Inc()
		if n := d.disc.Dropped() - wasDropped; n > 0 {
			d.cDropped.Add(n)
		}
		d.gErr.Set(d.model.ErrUnits)
		d.gRatio.Set((d.model.Ratio/d.nominal - 1) * 1e6)
		if d.OnSample != nil || d.offHist != nil || d.tr.Enabled(telemetry.KindDaemonCal) {
			est := d.EstimateAt(d.sch.Now())
			truth := float64(d.dev.GlobalCounterAt(d.sch.Now()))
			off := est - truth
			d.offHist.Observe(off)
			if d.tr.Enabled(telemetry.KindDaemonCal) {
				d.tr.Record(d.sch.Now(), telemetry.KindDaemonCal, d.dev.Name(),
					int64(off*1000), int64(d.calCount), "")
			}
			if d.OnSample != nil {
				d.OnSample(off)
			}
		}
		d.sch.After(d.cfg.CalInterval, d.calibrate)
	})
}

// EstimateAt returns the daemon's get_DTP_counter() estimate (in counter
// units, fractional) at time t, interpolated from the TSC.
func (d *Daemon) EstimateAt(t sim.Time) float64 {
	if !d.model.Valid {
		return 0
	}
	return d.model.DTP + (d.tsc.At(t)-d.model.TSC)*d.model.Ratio
}

// Estimate returns the current get_DTP_counter() value.
func (d *Daemon) Estimate() float64 { return d.EstimateAt(d.sch.Now()) }

// OffsetUnits returns ground truth: estimate minus hardware counter, in
// counter units (offset_sw of §6.2).
func (d *Daemon) OffsetUnits() float64 {
	now := d.sch.Now()
	return d.EstimateAt(now) - float64(d.dev.GlobalCounterAt(now))
}

// Device returns the attached DTP device.
func (d *Daemon) Device() *core.Device { return d.dev }

// TSC returns the daemon's raw timebase: the invariant-TSC software
// clock its estimates interpolate from. The serving plane anchors its
// published snapshots in this clock's domain so fast-path readers never
// touch the daemon itself.
func (d *Daemon) TSC() *swclock.Clock { return d.tsc }

// Ratio returns the estimated DTP counter units per TSC picosecond.
func (d *Daemon) Ratio() float64 { return d.model.Ratio }

// Calibrated reports whether at least one PCIe calibration completed
// (before that, estimates are meaningless zeros).
func (d *Daemon) Calibrated() bool { return d.model.Valid }

// Discipline returns the active discipline's kind ("ma", "pll",
// "theilsen" or "lad").
func (d *Daemon) Discipline() string { return d.disc.Name() }

// DroppedSamples returns how many calibration samples the discipline's
// outlier logic has rejected.
func (d *Daemon) DroppedSamples() uint64 { return d.disc.Dropped() }

// DisciplineResets returns how many times a device restart forced the
// discipline to discard its state and reacquire.
func (d *Daemon) DisciplineResets() uint64 { return d.resets }

// EstimateErrorUnits returns a conservative bound on the current
// estimate's error versus the hardware counter, in counter units: the
// discipline's self-reported anchor error plus its frequency-ratio
// slack accumulated since the calibration. It is adaptive — a
// contention spike widens the bound for exactly one calibration
// interval — and +Inf before the first calibration. The serving plane
// (internal/timesvc) folds it into published interval half-widths.
func (d *Daemon) EstimateErrorUnits() float64 {
	return d.model.ErrorAt(d.tsc.Now())
}
