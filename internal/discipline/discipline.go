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
// after N Feed calls depends only on the N samples (and the kind),
// never on wall time or external randomness.
package discipline

import (
	"fmt"
	"math"
	"slices"
	"sort"
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

// kinds lists the discipline kinds in canonical order.
var kinds = []string{"ma", "pll", "theilsen", "lad"}

// Kinds lists the available discipline kinds in canonical order.
func Kinds() []string { return slices.Clone(kinds) }

// Config selects a discipline. The zero value means the paper's moving
// average.
type Config struct {
	// Kind is "ma", "pll", "theilsen" or "lad" ("" = "ma").
	Kind string `json:"kind,omitempty"`
}

// Each kind's fixed parameters.
const (
	maGain    = 0.2 // ma EWMA ratio gain (paper)
	maWindow  = 10  // ma ratio baseline, in calibrations (paper)
	pllKP     = 0.7 // pll proportional (phase) gain
	pllKI     = 0.3 // pll integral (frequency) gain
	tsWindow  = 16  // theilsen regression window
	ladWindow = 24  // lad regression window
	// ladDropK is the lad outlier cutoff in robust standard deviations
	// (scaled MADs) of the fit residuals; lower is more aggressive.
	ladDropK = 5.0
)

// New builds the configured discipline. nominalRatio seeds the
// frequency estimate (counter units per TSC picosecond at nominal
// oscillator rate); the model reports it until enough samples arrive.
func (c Config) New(nominalRatio float64) (Discipline, error) {
	switch c.Kind {
	case "", "ma":
		return newMovingAverage(nominalRatio), nil
	case "pll":
		return newPLL(nominalRatio), nil
	case "theilsen":
		return newTheilSen(nominalRatio), nil
	case "lad":
		return newLAD(ladWindow, ladDropK, nominalRatio), nil
	}
	return nil, unknownKind(c.Kind)
}

func unknownKind(kind string) error {
	return fmt.Errorf("discipline: unknown kind %q (want one of %s)", kind, strings.Join(kinds, "|"))
}

// Parse reads a discipline spec: a kind name ("ma", "pll", "theilsen"
// or "lad"). An empty spec yields the default (ma). Each kind's
// parameters are fixed, so an ":opt=val" suffix is an error.
func Parse(spec string) (Config, error) {
	kind, opts, hasOpts := strings.Cut(spec, ":")
	kind = strings.TrimSpace(kind)
	if kind != "" && !slices.Contains(kinds, kind) {
		return Config{}, unknownKind(kind)
	}
	if hasOpts {
		if kind == "" {
			kind = "ma"
		}
		return Config{}, fmt.Errorf("discipline: %s takes no options, got %q", kind, opts)
	}
	return Config{Kind: kind}, nil
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
