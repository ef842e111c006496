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
	"encoding/json"
	"fmt"
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

// Fault kinds.
const (
	// KindFlap bounces a link up and down with exponentially
	// distributed holding times (MeanUp / MeanDown) for Duration, then
	// leaves it up.
	KindFlap = "flap"
	// KindBERBurst raises both directions of a link to BER for
	// Duration, then restores the original rates.
	KindBERBurst = "ber_burst"
	// KindBERDegrade permanently degrades both directions to BER
	// (Duration is ignored; the fault never clears).
	KindBERDegrade = "ber_degrade"
	// KindGreyLoss silently drops LossP of blocks in one direction
	// (Link[0] -> Link[1]) for Duration — the link stays "up".
	KindGreyLoss = "grey_loss"
	// KindGreyDelay linearly grows one direction's propagation delay by
	// ExtraDelay over Duration (in Steps increments), then restores it:
	// a growing delay asymmetry the INIT measurement never sees.
	KindGreyDelay = "grey_delay"
	// KindFreqStep steps a device oscillator by PPMStep (clamped to the
	// clock's ±MaxPPM) for Duration, then restores the original offset.
	// Duration 0 makes the step permanent.
	KindFreqStep = "freq_step"
	// KindTempRamp ramps a device oscillator by PPMStep over Duration
	// in Steps increments (temperature drift), then snaps back.
	KindTempRamp = "temp_ramp"
	// KindCrash power-cycles a device: at At every port (and its peer
	// port — the PHY loses signal) goes down and all protocol state and
	// counter content is lost; after Duration the device restarts from
	// counter zero and rejoins through INIT and BEACON-JOIN.
	KindCrash = "crash"

	// Adversarial kinds (Byzantine faults). Unlike the accidental faults
	// above they register no expected-degradation window with the
	// auditor: a hardened fabric is supposed to withstand them, so every
	// bound violation they cause counts as unexcused.

	// KindLiar makes a device lie: every Cadence (jittered by the
	// fault's RNG stream) it inflates its outgoing counter by a further
	// JumpUnits and pushes the lie through the otherwise unguarded
	// BEACON-JOIN path on all synced ports, for Duration. Plain DTP
	// adopts each JOIN fabric-wide; hardened admission rejects them and
	// quarantines the liar's links. The device's real counter stays
	// honest — the lie exists only on the wire.
	KindLiar = "liar"
	// KindOverclaim is the liar's stealthy sibling: the device ratchets
	// its outgoing counter by JumpUnits per Cadence through ordinary
	// BEACONs only, sized to stay just under the naive bit-error guard,
	// so each message looks plausible while the cumulative rate is far
	// beyond any honest oscillator. Bounded-jump admission catches the
	// cumulative drift the per-message guard cannot.
	KindOverclaim = "overclaim"
	// KindSpoof models an on-path attacker forging BEACONs on a cable:
	// every Cadence for Duration a counterfeit beacon claiming the
	// receiver's counter plus JumpUnits is injected toward Link[1] (the
	// attacker impersonates Link[0]).
	KindSpoof = "beacon_spoof"
)

// Fault is one declarative fault. Link faults name the two adjacent
// devices of the cable; device faults name the device.
type Fault struct {
	Kind string `json:"kind"`

	// Link identifies a cable by its two adjacent device names. For
	// directional faults (grey_loss, grey_delay) the impaired direction
	// is Link[0] -> Link[1].
	Link []string `json:"link,omitempty"`
	// Device identifies a device (freq_step, temp_ramp, crash).
	Device string `json:"device,omitempty"`

	// At is when the fault starts; Duration how long it lasts (0 =
	// permanent, where the kind allows it).
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
	// (default 10).
	Steps int `json:"steps,omitempty"`

	// JumpUnits is the counter inflation per firing, in counter units
	// (liar, overclaim, beacon_spoof).
	JumpUnits int64 `json:"jump_units,omitempty"`
	// Cadence is the mean interval between adversarial firings (liar,
	// overclaim, beacon_spoof); exact instants are jittered by the
	// fault's RNG stream.
	Cadence Duration `json:"cadence,omitempty"`
}

// permanent reports whether the fault never clears.
func (f *Fault) permanent() bool {
	return f.Kind == KindBERDegrade || (f.Kind == KindFreqStep && f.Duration.T == 0)
}

// adversarial reports whether the fault models an attacker rather than
// an accident. Adversarial faults register no expected-degradation
// window with the auditor — see the kind constants above.
func (f *Fault) adversarial() bool {
	switch f.Kind {
	case KindLiar, KindOverclaim, KindSpoof:
		return true
	}
	return false
}

// target names what the fault hits, for traces and error messages.
func (f *Fault) target() string {
	if len(f.Link) == 2 {
		return f.Link[0] + "-" + f.Link[1]
	}
	return f.Device
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
	var sc Scenario
	if err := json.Unmarshal(b, &sc); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return &sc, nil
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

// Validate checks every fault for structural errors (unknown kinds,
// missing targets, out-of-range probabilities, a window that ends past
// the simulated clock's range) without touching a network; target names
// are resolved later by Engine.Schedule.
func (sc *Scenario) Validate() error {
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

func (f *Fault) validate() error {
	needLink := func() error {
		if len(f.Link) != 2 || f.Link[0] == "" || f.Link[1] == "" {
			return fmt.Errorf("%s requires \"link\": [a, b]", f.Kind)
		}
		return nil
	}
	needDevice := func() error {
		if f.Device == "" {
			return fmt.Errorf("%s requires \"device\"", f.Kind)
		}
		return nil
	}
	needDuration := func() error {
		if f.Duration.T <= 0 {
			return fmt.Errorf("%s requires a positive \"duration\"", f.Kind)
		}
		return nil
	}
	switch f.Kind {
	case KindFlap:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.MeanUp.T <= 0 || f.MeanDown.T <= 0 {
			return fmt.Errorf("flap requires positive mean_up and mean_down")
		}
	case KindBERBurst, KindBERDegrade:
		if err := needLink(); err != nil {
			return err
		}
		if f.BER <= 0 || f.BER >= 1 {
			return fmt.Errorf("%s requires \"ber\" in (0, 1)", f.Kind)
		}
		if f.Kind == KindBERBurst {
			if err := needDuration(); err != nil {
				return err
			}
		}
	case KindGreyLoss:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.LossP <= 0 || f.LossP > 1 {
			return fmt.Errorf("grey_loss requires \"loss_p\" in (0, 1]")
		}
	case KindGreyDelay:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.ExtraDelay.T <= 0 {
			return fmt.Errorf("grey_delay requires a positive \"extra_delay\"")
		}
	case KindFreqStep:
		if err := needDevice(); err != nil {
			return err
		}
		if f.PPMStep == 0 {
			return fmt.Errorf("freq_step requires a nonzero \"ppm_step\"")
		}
	case KindTempRamp:
		if err := needDevice(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.PPMStep == 0 {
			return fmt.Errorf("temp_ramp requires a nonzero \"ppm_step\"")
		}
	case KindCrash:
		if err := needDevice(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
	case KindLiar, KindOverclaim:
		if err := needDevice(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.JumpUnits <= 0 {
			return fmt.Errorf("%s requires a positive \"jump_units\"", f.Kind)
		}
		if f.Cadence.T <= 0 {
			return fmt.Errorf("%s requires a positive \"cadence\"", f.Kind)
		}
	case KindSpoof:
		if err := needLink(); err != nil {
			return err
		}
		if err := needDuration(); err != nil {
			return err
		}
		if f.JumpUnits <= 0 {
			return fmt.Errorf("%s requires a positive \"jump_units\"", f.Kind)
		}
		if f.Cadence.T <= 0 {
			return fmt.Errorf("%s requires a positive \"cadence\"", f.Kind)
		}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	if f.Steps < 0 {
		return fmt.Errorf("%s: negative steps", f.Kind)
	}
	return nil
}
