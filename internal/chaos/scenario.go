// Package chaos is a deterministic fault-injection engine for DTP
// networks. A declarative Scenario — built in Go or loaded from JSON
// (dtpsim -chaos scenario.json) — compiles into ordinary scheduler
// events that degrade a live simulation: link flaps with Markov up/down
// holding times, BER bursts and permanent BER degradation, grey
// failures (one-direction block loss, growing delay asymmetry),
// oscillator frequency steps and temperature ramps, and full device
// crash/restart cycles.
//
// Everything is reproducible: each fault owns an RNG stream derived
// from the run seed and the fault's index, so the same scenario on the
// same seed produces byte-identical traces, and editing one fault never
// perturbs the randomness of another.
//
// The engine closes the loop with internal/audit: every injected fault
// registers an expected-degradation window with the auditor, so a chaos
// campaign can assert the strong property "zero bound violations except
// where a declared fault was active" and, after the last fault clears,
// that the network reconverged within the scenario's deadline.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/dtplab/dtp/internal/sim"
)

// Duration is a sim.Time that marshals to/from Go duration strings
// ("150us", "2ms") so scenario JSON stays human-readable.
type Duration struct {
	T sim.Time
}

// D wraps a sim.Time for scenario literals built in Go.
func D(t sim.Time) Duration { return Duration{T: t} }

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.T.Std().String())
}

// maxDurationNs is the longest duration, in nanoseconds, that sim.Time
// holds (about 106 days).
const maxDurationNs = math.MaxInt64 / int64(sim.Nanosecond)

// UnmarshalJSON accepts a Go duration string or a bare number of
// nanoseconds, and rejects one that is negative or does not fit
// sim.Time. It is the one duration decoder of the JSON inputs: campaign
// grids decode through it too.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var ns int64
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		sd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		ns = sd.Nanoseconds()
	} else if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"150us\" or nanoseconds: %s", b)
	}
	if ns < 0 {
		return fmt.Errorf("negative duration %s", b)
	}
	if ns > maxDurationNs {
		return fmt.Errorf("duration %s does not fit the simulated clock (max %v)", b, time.Duration(maxDurationNs))
	}
	d.T = sim.Time(ns) * sim.Nanosecond
	return nil
}

// Fault is one declarative fault. Link faults name the two adjacent
// devices of the cable; device faults name the device.
type Fault struct {
	Kind string `json:"kind"`

	// Link identifies a cable by its two adjacent device names. For
	// directional faults (grey_loss, grey_delay) the impaired direction
	// is Link[0] -> Link[1].
	Link []string `json:"link,omitempty"`
	// Device identifies a device (freq_step, temp_ramp, crash, liar,
	// overclaim).
	Device string `json:"device,omitempty"`

	// At is when the fault starts; Duration how long it lasts. The
	// kind's duration rule says whether Duration is required, optional
	// (0 = permanent) or forbidden (the fault never clears).
	At       Duration `json:"at"`
	Duration Duration `json:"duration,omitempty"`

	// MeanUp / MeanDown are the Markov holding-time means for flap.
	MeanUp   Duration `json:"mean_up,omitempty"`
	MeanDown Duration `json:"mean_down,omitempty"`

	// BER is the injected bit error rate (ber_burst, ber_degrade).
	BER float64 `json:"ber,omitempty"`
	// LossP is the injected block-loss probability (grey_loss).
	LossP float64 `json:"loss_p,omitempty"`
	// ExtraDelay is the added one-way delay at full ramp (grey_delay).
	ExtraDelay Duration `json:"extra_delay,omitempty"`
	// PPMStep is the frequency change in ppm (freq_step, temp_ramp).
	PPMStep float64 `json:"ppm_step,omitempty"`
	// Steps is the ramp granularity for grey_delay / temp_ramp
	// (0 = 10).
	Steps int `json:"steps,omitempty"`

	// JumpUnits is the counter inflation per firing, in counter units
	// (liar, overclaim, beacon_spoof).
	JumpUnits int64 `json:"jump_units,omitempty"`
	// Cadence is the mean interval between adversarial firings (liar,
	// overclaim, beacon_spoof); exact instants are jittered by the
	// fault's RNG stream.
	Cadence Duration `json:"cadence,omitempty"`
}

// permanent reports whether the fault never clears. validate admits a
// zero Duration only where the kind's duration rule allows it.
func (f *Fault) permanent() bool { return f.Duration.T == 0 }

// target names what the fault hits, for traces and error messages.
func (f *Fault) target() string {
	if kinds[f.Kind].link {
		return f.Link[0] + "-" + f.Link[1]
	}
	return f.Device
}

// dir names a directional fault's impaired direction.
func (f *Fault) dir() string { return f.Link[0] + ">" + f.Link[1] }

// steps is the ramp granularity of grey_delay and temp_ramp.
func (f *Fault) steps() int {
	if f.Steps > 0 {
		return f.Steps
	}
	return 10
}

// Scenario is a full fault-injection campaign.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// SettleGrace extends every fault's expected-degradation window
	// past its clearing time: the protocol needs a re-INIT and a JOIN
	// round to pull a disturbed subnet back in bound (default 500 µs).
	SettleGrace Duration `json:"settle_grace,omitempty"`

	// ReconvergeDeadline is how long after the last fault clears (plus
	// SettleGrace) the network must be fully synchronized and in bound
	// again for Verify to pass (default 10 ms).
	ReconvergeDeadline Duration `json:"reconverge_deadline,omitempty"`

	Faults []Fault `json:"faults"`
}

// Load reads and validates a scenario from a JSON file.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	sc, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return &sc, nil
}

// decode decodes scenario JSON strictly: a key Scenario or Fault does
// not declare is a typo to report — a misspelled "duration" would
// otherwise make a fault permanent.
func decode(b []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("data after the scenario object")
	}
	return sc, nil
}

// fillDefaults applies scenario-level defaults.
func (sc *Scenario) fillDefaults() {
	if sc.SettleGrace.T == 0 {
		sc.SettleGrace = D(500 * sim.Microsecond)
	}
	if sc.ReconvergeDeadline.T == 0 {
		sc.ReconvergeDeadline = D(10 * sim.Millisecond)
	}
}

// validate checks every fault for structural errors (unknown kinds,
// missing targets, out-of-range probabilities, a window that ends past
// the simulated clock's range) without touching a network; target names
// are resolved later by NewEngine.
func (sc *Scenario) validate() error {
	if len(sc.Faults) == 0 {
		return fmt.Errorf("scenario %q has no faults", sc.Name)
	}
	// The engine's reconvergence deadline is the last fault's end plus
	// the settle grace and the deadline, so every such sum must fit.
	d := *sc
	d.fillDefaults()
	for i := range sc.Faults {
		f := &sc.Faults[i]
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		end := f.At.T
		for _, t := range []sim.Time{f.Duration.T, d.SettleGrace.T, d.ReconvergeDeadline.T} {
			if t > 0 && end > math.MaxInt64-t {
				return fmt.Errorf("fault %d: at + duration + settle_grace + reconverge_deadline overflows the simulated clock", i)
			}
			end += t
		}
	}
	return nil
}

// validate checks the fault against its kind's row: the target, the
// duration rule, then the kind's own fields.
func (f *Fault) validate() error {
	k, ok := kinds[f.Kind]
	if !ok {
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	var need string
	switch {
	case k.link && (len(f.Link) != 2 || f.Link[0] == "" || f.Link[1] == ""):
		need = `"link": [a, b]`
	case !k.link && f.Device == "":
		need = `"device"`
	case k.duration == durRequired && f.Duration.T <= 0:
		need = `a positive "duration"`
	case k.check != nil:
		need = k.check(f)
	}
	switch {
	case need != "":
		return fmt.Errorf("%s requires %s", f.Kind, need)
	case k.duration == durNone && f.Duration.T != 0:
		return fmt.Errorf("%s takes no \"duration\": it never clears", f.Kind)
	case f.Steps < 0:
		return fmt.Errorf("%s: negative steps", f.Kind)
	}
	return nil
}
