package chaos

import (
	"fmt"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/xo"
)

// Fault kinds. Each names one row of the kinds table, which is the
// kind's whole definition.
const (
	KindFlap       = "flap"
	KindBERBurst   = "ber_burst"
	KindBERDegrade = "ber_degrade"
	KindGreyLoss   = "grey_loss"
	KindGreyDelay  = "grey_delay"
	KindFreqStep   = "freq_step"
	KindTempRamp   = "temp_ramp"
	KindCrash      = "crash"
	KindLiar       = "liar"
	KindOverclaim  = "overclaim"
	KindSpoof      = "beacon_spoof"
)

// durationRule is what a kind makes of Fault.Duration. A validated
// fault is therefore permanent exactly when its Duration is 0.
type durationRule uint8

const (
	durRequired durationRule = iota // positive: the fault clears after it
	durOptional                     // 0 makes the fault permanent
	durNone                         // must be 0: the fault never clears
)

// kind defines one fault kind. Adding a kind means adding a row to
// kinds and writing its start.
type kind struct {
	link     bool // the target is a cable (Fault.Link), else a device
	duration durationRule
	// adversarial marks an attack rather than an accident. It declares
	// no expected-degradation window with the auditor: a hardened
	// fabric is supposed to withstand it, so every bound violation it
	// causes counts as unexcused.
	adversarial bool
	// check returns what the kind's own fields lack ("" = valid),
	// phrased to follow "<kind> requires".
	check func(f *Fault) string
	// detail renders the chaos_inject trace text, read at injection.
	detail func(h *hit) string
	// start applies the fault at injection and returns what undoes it
	// at the clear (nil when nothing needs undoing).
	start func(e *Engine, h *hit) (restore func())
}

var kinds = map[string]kind{
	// flap bounces a link up and down with exponentially distributed
	// holding times (MeanUp / MeanDown) for Duration, then leaves it up.
	KindFlap: {link: true,
		check: func(f *Fault) string {
			if f.MeanUp.T <= 0 || f.MeanDown.T <= 0 {
				return "positive mean_up and mean_down"
			}
			return ""
		},
		detail: func(h *hit) string { return fmt.Sprintf("mean_up=%v mean_down=%v", h.MeanUp.T, h.MeanDown.T) },
		start: func(e *Engine, h *hit) func() {
			down := true
			e.until(h.end(), func() (next sim.Time) {
				if down {
					e.net.SetLinkDown(h.li)
					next = h.rng.ExpTime(h.MeanDown.T)
				} else {
					e.net.SetLinkUp(h.li)
					next = h.rng.ExpTime(h.MeanUp.T)
				}
				down = !down
				return next
			})
			return func() { e.net.SetLinkUp(h.li) }
		}},
	// ber_burst raises both directions of a link to BER for Duration,
	// then restores the original rates.
	KindBERBurst: {link: true, check: berCheck, start: setBER,
		detail: func(h *hit) string { return fmt.Sprintf("ber=%g", h.BER) }},
	// ber_degrade degrades both directions to BER for good.
	KindBERDegrade: {link: true, duration: durNone, check: berCheck, start: setBER,
		detail: func(h *hit) string { return fmt.Sprintf("ber=%g permanent", h.BER) }},
	// grey_loss silently drops LossP of blocks in one direction
	// (Link[0] -> Link[1]) for Duration; the link stays "up".
	KindGreyLoss: {link: true,
		check: func(f *Fault) string {
			if !(f.LossP > 0 && f.LossP <= 1) {
				return `"loss_p" in (0, 1]`
			}
			return ""
		},
		detail: func(h *hit) string { return fmt.Sprintf("loss_p=%g dir=%s", h.LossP, h.dir()) },
		start: func(e *Engine, h *hit) func() {
			w := e.wireFor(h)
			orig := w.LossP()
			w.SetLossP(h.LossP)
			return func() { w.SetLossP(orig) }
		}},
	// grey_delay grows one direction's propagation delay by ExtraDelay
	// over Duration in Steps increments, then restores it: a growing
	// delay asymmetry the INIT measurement never sees.
	KindGreyDelay: {link: true,
		check: func(f *Fault) string {
			if f.ExtraDelay.T <= 0 {
				return `a positive "extra_delay"`
			}
			return ""
		},
		detail: func(h *hit) string {
			return fmt.Sprintf("extra=%v steps=%d dir=%s", h.ExtraDelay.T, h.steps(), h.dir())
		},
		start: func(e *Engine, h *hit) func() {
			w := e.wireFor(h)
			base := w.Delay()
			e.ramp(h, func(k, n int) { _ = w.SetDelay(base + h.ExtraDelay.T*sim.Time(k)/sim.Time(n)) })
			return func() { _ = w.SetDelay(base) }
		}},
	// freq_step steps a device oscillator by PPMStep (clamped to the
	// clock's ±MaxPPM) for Duration, then restores the original offset.
	// Duration 0 makes the step permanent.
	KindFreqStep: {duration: durOptional, check: ppmCheck,
		detail: func(h *hit) string {
			clk := h.dev.Clock()
			return fmt.Sprintf("ppm %+.2f -> %+.2f", clk.PPM(), clampPPM(clk, clk.PPM()+h.PPMStep))
		},
		start: func(e *Engine, h *hit) func() {
			clk := h.dev.Clock()
			orig := clk.PPM()
			clk.AdjustPPM(clampPPM(clk, orig+h.PPMStep))
			return func() { clk.AdjustPPM(orig) }
		}},
	// temp_ramp ramps a device oscillator by PPMStep over Duration in
	// Steps increments (temperature drift), then snaps back.
	KindTempRamp: {check: ppmCheck,
		detail: func(h *hit) string { return fmt.Sprintf("ramp %+.2f ppm over %v", h.PPMStep, h.Duration.T) },
		start: func(e *Engine, h *hit) func() {
			clk := h.dev.Clock()
			orig := clk.PPM()
			e.ramp(h, func(k, n int) { clk.AdjustPPM(clampPPM(clk, orig+h.PPMStep*float64(k)/float64(n))) })
			return func() { clk.AdjustPPM(orig) }
		}},
	// crash power-cycles a device: every port (and its peer port — the
	// PHY loses signal) goes down and all protocol state and counter
	// content is lost; after Duration the device restarts from counter
	// zero and rejoins through INIT and BEACON-JOIN.
	KindCrash: {
		detail: func(h *hit) string { return fmt.Sprintf("restart after %v", h.Duration.T) },
		start: func(e *Engine, h *hit) func() {
			h.dev.Crash()
			return h.dev.Restart
		}},
	// liar makes a device lie: every Cadence it inflates its outgoing
	// counter by a further JumpUnits and pushes the lie through the
	// otherwise unguarded BEACON-JOIN path on all synced ports, for
	// Duration. Plain DTP adopts each JOIN fabric-wide; hardened
	// admission rejects them and quarantines the liar's links.
	KindLiar: {adversarial: true, check: attackCheck, detail: attackDetail, start: ratchet(true)},
	// overclaim is the liar's stealthy sibling: the device ratchets its
	// outgoing counter by JumpUnits per Cadence through ordinary BEACONs
	// only, sized to stay just under the naive bit-error guard, so each
	// message looks plausible while the cumulative rate is far beyond
	// any honest oscillator. Bounded-jump admission catches the
	// cumulative drift the per-message guard cannot.
	KindOverclaim: {adversarial: true, check: attackCheck, detail: attackDetail, start: ratchet(false)},
	// beacon_spoof is an on-path attacker forging BEACONs on a cable:
	// every Cadence for Duration a counterfeit beacon claiming the
	// receiver's own counter plus JumpUnits arrives at the port on
	// Link[1], as if its peer Link[0] had sent it. Tracking the victim's
	// counter keeps every forgery inside the per-message guard, so only
	// cumulative bounded-jump admission can tell the stream from an
	// honest fast clock.
	KindSpoof: {link: true, adversarial: true, check: attackCheck,
		detail: func(h *hit) string { return attackDetail(h) + " dir=" + h.dir() },
		start: func(e *Engine, h *hit) func() {
			rx := e.spoofTargetPort(h)
			e.until(h.end(), func() sim.Time {
				rx.InjectSpoofedBeacon(rx.Device().GlobalCounter() + uint64(h.JumpUnits))
				return cadenceJitter(h.rng, h.Cadence.T)
			})
			return nil
		}},
}

func berCheck(f *Fault) string {
	if !(f.BER > 0 && f.BER < 1) {
		return `"ber" in (0, 1)`
	}
	return ""
}

func ppmCheck(f *Fault) string {
	if f.PPMStep == 0 {
		return `a nonzero "ppm_step"`
	}
	return ""
}

func attackCheck(f *Fault) string {
	if f.JumpUnits <= 0 {
		return `a positive "jump_units"`
	}
	if f.Cadence.T <= 0 {
		return `a positive "cadence"`
	}
	return ""
}

func attackDetail(h *hit) string {
	return fmt.Sprintf("jump_units=%d cadence=%v", h.JumpUnits, h.Cadence.T)
}

// setBER raises both directions of the fault's cable to its BER.
func setBER(e *Engine, h *hit) func() {
	ab, ba := e.net.LinkWires(h.li)
	origAB, origBA := ab.BER(), ba.BER()
	ab.SetBER(h.BER)
	ba.SetBER(h.BER)
	return func() {
		ab.SetBER(origAB)
		ba.SetBER(origBA)
	}
}

// ratchet starts the two counter-inflation attacks. Every cadence the
// device raises its outgoing-counter lie by JumpUnits; a liar also
// pushes each step through BEACON-JOIN so plain DTP adopts it at once,
// while an overclaimer lets ordinary beacons carry a per-message delta
// small enough to slip under the bit-error guard. The restore removes
// the lie. The device's real counter was never touched, so it is back
// in bound once the fabric's poisoned maximum decays into plain drift
// (or at once, if hardened admission refused the lie all along).
func ratchet(join bool) func(e *Engine, h *hit) func() {
	return func(e *Engine, h *hit) func() {
		e.until(h.end(), func() sim.Time {
			h.dev.SetLieUnits(h.dev.LieUnits() + uint64(h.JumpUnits))
			if join {
				h.dev.BroadcastJoin()
			}
			return cadenceJitter(h.rng, h.Cadence.T)
		})
		return func() { h.dev.SetLieUnits(0) }
	}
}

// cadenceJitter spaces adversarial firings uniformly in [c/2, 3c/2]:
// the mean stays at the configured cadence while the per-fault RNG
// stream keeps the exact instants reproducible and independent of every
// other fault.
func cadenceJitter(rng *sim.RNG, c sim.Time) sim.Time {
	return rng.UniformTime(c/2, c+c/2)
}

// clampPPM limits an oscillator offset to the clock's ±MaxPPM.
func clampPPM(clk *xo.Clock, ppm float64) float64 {
	return min(max(ppm, -clk.MaxPPM()), clk.MaxPPM())
}

// hit is one fault bound to the network: its resolved target and its
// own RNG stream.
type hit struct {
	*Fault
	idx int
	li  int          // the cable, for link kinds
	dev *core.Device // the device, for device kinds
	rng *sim.RNG
}

func (h *hit) end() sim.Time { return h.At.T + h.Duration.T }

// until calls step at once and then again after each delay it returns,
// for as long as the fault lasts.
func (e *Engine) until(end sim.Time, step func() sim.Time) {
	var fire func()
	fire = func() {
		if e.sch.Now() < end {
			e.sch.After(step(), fire)
		}
	}
	fire()
}

// ramp calls set(k, n) for k = 1..n at n even steps across the fault's
// Duration. The clear is armed after these steps, so where the last
// step and the clear land at the same instant the restore runs second.
func (e *Engine) ramp(h *hit, set func(k, n int)) {
	n := h.steps()
	interval := h.Duration.T / sim.Time(n)
	for k := 1; k <= n; k++ {
		e.sch.After(interval*sim.Time(k), func() { set(k, n) })
	}
}

// wireFor returns the Link[0] -> Link[1] direction of the fault's cable.
func (e *Engine) wireFor(h *hit) *link.Wire {
	ab, ba := e.net.LinkWires(h.li)
	if e.net.Graph.Nodes[e.net.Graph.Links[h.li].A].Name == h.Link[0] {
		return ab
	}
	return ba
}

// spoofTargetPort returns the port forged beacons arrive at: the one on
// device Link[1], whose peer (Link[0]) the attacker impersonates.
func (e *Engine) spoofTargetPort(h *hit) *core.Port {
	pa, pb := e.net.LinkPorts(h.li)
	if e.net.Graph.Nodes[e.net.Graph.Links[h.li].A].Name == h.Link[1] {
		return pa
	}
	return pb
}
