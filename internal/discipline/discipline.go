// Package discipline provides pluggable software-clock estimators for
// the DTP daemon (§5.1). A Discipline consumes raw PCIe-sampled
// (tsc, dtp) calibration pairs and maintains a linear model of the NIC
// counter in the TSC domain — an anchor point, a frequency ratio, and a
// self-reported error bound that the serving plane (internal/timesvc)
// folds into published interval half-widths.
//
// Four disciplines ship:
//
//   - ma: the paper's moving-average/EWMA path (Figure 7), extracted
//     from the daemon bit-for-bit. The default.
//   - pll: an Ntimed-style proportional-integral phase-locked loop.
//   - theilsen: Theil-Sen median-of-pairwise-slopes regression.
//   - lad: chrony-style least-absolute-deviations regression with
//     outlier sample dropping.
//
// All disciplines are deterministic pure state machines: the model
// after N Feed calls depends only on the N samples (and the Config),
// never on wall time or external randomness.
package discipline

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one raw PCIe calibration read, as measured by the daemon.
type Sample struct {
	// DTP is the latched NIC counter value, in counter units.
	DTP float64
	// TSC is the TSC software-clock reading at the assumed latch point
	// (the midpoint of the measured MMIO read), in TSC picoseconds.
	TSC float64
	// LatchErrPs is the worst-case deviation of the true latch point
	// from the assumed midpoint, in TSC picoseconds (the latch-window
	// half-range over the measured read duration). Disciplines scale it
	// by the ratio to bound the anchor error in counter units.
	LatchErrPs float64
}

// Model is a discipline's current linear estimate of the NIC counter.
type Model struct {
	// Valid is false until the discipline has enough samples to serve
	// estimates (at least one).
	Valid bool
	// DTP and TSC anchor the model: the predicted counter value DTP at
	// TSC-clock reading TSC.
	DTP float64
	TSC float64
	// Ratio is the estimated counter units per TSC picosecond.
	Ratio float64
	// ErrUnits bounds the anchor error at the anchor point, in counter
	// units (self-reported; feeds the timesvc ε-budget).
	ErrUnits float64
	// SlackPPM bounds the residual frequency-ratio error in parts per
	// million; error grows by SlackPPM·1e-6 of the TSC time elapsed
	// since the anchor.
	SlackPPM float64
	// Dropped reports whether the discipline rejected the most recently
	// fed sample as an outlier (the model may still have moved if the
	// refit discarded older samples).
	Dropped bool
}

// EstimateAt extrapolates the counter estimate to TSC reading tscPs.
func (m Model) EstimateAt(tscPs float64) float64 {
	if !m.Valid {
		return 0
	}
	return m.DTP + (tscPs-m.TSC)*m.Ratio
}

// ErrorAt bounds the estimate's error at TSC reading tscPs, in counter
// units: the anchor error plus frequency slack accumulated since the
// anchor. +Inf while the model is invalid.
func (m Model) ErrorAt(tscPs float64) float64 {
	if !m.Valid {
		return math.Inf(1)
	}
	elapsed := tscPs - m.TSC
	if elapsed < 0 {
		elapsed = 0
	}
	return m.ErrUnits + m.SlackPPM*1e-6*elapsed*m.Ratio
}

// Discipline is a software-clock estimator. Implementations are not
// safe for concurrent use; the daemon serializes Feed under the
// simulation scheduler.
type Discipline interface {
	// Name returns the discipline kind ("ma", "pll", ...).
	Name() string
	// Feed consumes one calibration sample and returns the updated
	// model (also available via Model).
	Feed(s Sample) Model
	// Model returns the current model without feeding.
	Model() Model
	// Reset discards all state, as after a device crash/restart: the
	// next Feed starts a fresh acquisition.
	Reset()
	// Dropped returns how many samples outlier rejection has discarded
	// over the discipline's lifetime (never reset by Reset).
	Dropped() uint64
}

// Kinds lists the available discipline kinds in canonical order.
func Kinds() []string { return []string{"ma", "pll", "theilsen", "lad"} }

// Config selects and parameterizes a discipline. The zero value means
// the default moving-average discipline with paper parameters.
type Config struct {
	// Kind is "ma", "pll", "theilsen" or "lad" ("" = "ma").
	Kind string `json:"kind,omitempty"`
	// Gain is the ma EWMA ratio gain (0 = 0.2, the paper value).
	Gain float64 `json:"gain,omitempty"`
	// Window is the sample window: ma ratio baseline (0 = 10),
	// theilsen regression window (0 = 16), lad regression window
	// (0 = 24).
	Window int `json:"window,omitempty"`
	// KP and KI are the pll proportional (phase) and integral
	// (frequency) gains (0 = 0.7 and 0.3).
	KP float64 `json:"kp,omitempty"`
	KI float64 `json:"ki,omitempty"`
	// DropK is the lad outlier cutoff in robust standard deviations
	// (scaled MADs) of the fit residuals; samples further out are
	// dropped from the window (0 = 5; lower is more aggressive).
	DropK float64 `json:"dropk,omitempty"`
}

// Defaults per kind.
const (
	defaultGain      = 0.2 // ma EWMA gain (paper)
	defaultMAWindow  = 10  // ma ratio baseline (paper)
	defaultKP        = 0.7
	defaultKI        = 0.3
	defaultTSWindow  = 16
	defaultLADWindow = 24
	defaultDropK     = 5.0
)

// WithDefaults fills zero fields with the kind's defaults.
func (c Config) WithDefaults() Config {
	if c.Kind == "" {
		c.Kind = "ma"
	}
	switch c.Kind {
	case "ma":
		if c.Gain == 0 {
			c.Gain = defaultGain
		}
		if c.Window == 0 {
			c.Window = defaultMAWindow
		}
	case "pll":
		if c.KP == 0 {
			c.KP = defaultKP
		}
		if c.KI == 0 {
			c.KI = defaultKI
		}
	case "theilsen":
		if c.Window == 0 {
			c.Window = defaultTSWindow
		}
	case "lad":
		if c.Window == 0 {
			c.Window = defaultLADWindow
		}
		if c.DropK == 0 {
			c.DropK = defaultDropK
		}
	}
	return c
}

// Validate checks the configuration without filling defaults.
func (c Config) Validate() error {
	switch c.Kind {
	case "", "ma", "pll", "theilsen", "lad":
	default:
		return fmt.Errorf("discipline: unknown kind %q (want one of %s)",
			c.Kind, strings.Join(Kinds(), "|"))
	}
	// NaN compares false against every range bound below, and +Inf
	// passes dropk's, so non-finite gains are rejected first.
	for _, g := range []struct {
		name string
		v    float64
	}{{"gain", c.Gain}, {"kp", c.KP}, {"ki", c.KI}, {"dropk", c.DropK}} {
		if math.IsNaN(g.v) || math.IsInf(g.v, 0) {
			return fmt.Errorf("discipline: %s %g is not finite", g.name, g.v)
		}
	}
	if c.Gain < 0 || c.Gain > 1 {
		return fmt.Errorf("discipline: gain %g out of (0,1]", c.Gain)
	}
	if c.Window < 0 {
		return fmt.Errorf("discipline: window %d negative", c.Window)
	}
	if c.Window > 0 && c.Window < 2 && (c.Kind == "theilsen" || c.Kind == "lad") {
		return fmt.Errorf("discipline: %s window %d too small (need >= 2)", c.Kind, c.Window)
	}
	if c.KP < 0 || c.KP > 2 {
		return fmt.Errorf("discipline: kp %g out of (0,2]", c.KP)
	}
	if c.KI < 0 || c.KI > 2 {
		return fmt.Errorf("discipline: ki %g out of (0,2]", c.KI)
	}
	if c.DropK < 0 {
		return fmt.Errorf("discipline: dropk %g negative", c.DropK)
	}
	return nil
}

// New builds the configured discipline. nominalRatio seeds the
// frequency estimate (counter units per TSC picosecond at nominal
// oscillator rate); the model reports it until enough samples arrive.
func (c Config) New(nominalRatio float64) (Discipline, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.WithDefaults()
	switch c.Kind {
	case "ma":
		return newMovingAverage(c, nominalRatio), nil
	case "pll":
		return newPLL(c, nominalRatio), nil
	case "theilsen":
		return newTheilSen(c, nominalRatio), nil
	case "lad":
		return newLAD(c, nominalRatio), nil
	}
	panic("unreachable")
}

// String renders the canonical spec ("lad:window=24,dropk=3"); the
// result round-trips through Parse. Default-valued options are elided.
func (c Config) String() string {
	kind := c.Kind
	if kind == "" {
		kind = "ma"
	}
	var opts []string
	add := func(k string, v float64) {
		opts = append(opts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
	if c.Gain != 0 {
		add("gain", c.Gain)
	}
	if c.Window != 0 {
		opts = append(opts, "window="+strconv.Itoa(c.Window))
	}
	if c.KP != 0 {
		add("kp", c.KP)
	}
	if c.KI != 0 {
		add("ki", c.KI)
	}
	if c.DropK != 0 {
		add("dropk", c.DropK)
	}
	if len(opts) == 0 {
		return kind
	}
	return kind + ":" + strings.Join(opts, ",")
}

// Parse reads a discipline spec of the form
//
//	kind[:opt=val[,opt=val...]]
//
// e.g. "ma", "ma:gain=0.3", "pll:kp=0.5,ki=0.2", "theilsen:window=32",
// "lad:window=24,dropk=3". An empty spec yields the default (ma).
func Parse(spec string) (Config, error) {
	var c Config
	if spec == "" {
		return c, nil
	}
	kind, rest, hasOpts := strings.Cut(spec, ":")
	c.Kind = strings.TrimSpace(kind)
	if hasOpts {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return Config{}, fmt.Errorf("discipline: bad option %q in %q (want opt=val)", kv, spec)
			}
			k = strings.TrimSpace(k)
			v = strings.TrimSpace(v)
			switch k {
			case "window":
				n, err := strconv.Atoi(v)
				if err != nil {
					return Config{}, fmt.Errorf("discipline: bad window %q: %v", v, err)
				}
				c.Window = n
			case "gain", "kp", "ki", "dropk":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return Config{}, fmt.Errorf("discipline: bad %s %q: %v", k, v, err)
				}
				switch k {
				case "gain":
					c.Gain = f
				case "kp":
					c.KP = f
				case "ki":
					c.KI = f
				case "dropk":
					c.DropK = f
				}
			default:
				return Config{}, fmt.Errorf("discipline: unknown option %q in %q", k, spec)
			}
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// median returns the median of xs, sorting it in place. Even lengths
// average the two central elements; empty input returns 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
