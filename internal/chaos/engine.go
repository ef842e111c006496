package chaos

import (
	"fmt"
	"strings"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Engine compiles a Scenario into scheduler events over a live network.
// Build with NewEngine, optionally Instrument and BindAuditor, then
// Schedule before (or after) the network starts; run the scheduler to
// at least Deadline() and call Verify.
type Engine struct {
	net  *core.Network
	sch  *sim.Scheduler
	sc   Scenario
	seed uint64

	aud *audit.Auditor
	tr  *telemetry.Tracer

	injected map[string]*telemetry.Counter
	cleared  map[string]*telemetry.Counter
	activeG  *telemetry.Gauge

	scheduled bool
	activeN   int // currently active faults, permanent included
	injectedN int
	clearedN  int
	temporal  int // faults that must clear before Verify passes
	lastClear sim.Time
	deadline  sim.Time
}

// NewEngine binds a validated scenario to a network. The seed should be
// the run seed: each fault derives its own RNG stream from it, so fault
// randomness is reproducible and independent of everything else.
func NewEngine(n *core.Network, sc *Scenario, seed uint64) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	e := &Engine{net: n, sch: n.Sch, sc: *sc, seed: seed}
	e.sc.fillDefaults()
	return e, nil
}

// Instrument attaches a metrics registry and/or tracer (either may be
// nil). Injections and clears then emit chaos_inject / chaos_clear
// trace events and count into dtp_chaos_* metrics.
func (e *Engine) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	e.tr = tr
	e.injected = map[string]*telemetry.Counter{}
	e.cleared = map[string]*telemetry.Counter{}
	// Register per-kind series in fault order so the registry layout is
	// a deterministic function of the scenario.
	for i := range e.sc.Faults {
		k := e.sc.Faults[i].Kind
		if _, ok := e.injected[k]; ok {
			continue
		}
		e.injected[k] = reg.Counter("dtp_chaos_faults_injected_total",
			"Faults injected by the chaos engine.", "kind", k)
		e.cleared[k] = reg.Counter("dtp_chaos_faults_cleared_total",
			"Faults cleared (impairment removed) by the chaos engine.", "kind", k)
	}
	e.activeG = reg.Gauge("dtp_chaos_active_faults",
		"Faults currently active (permanent ones never clear).")
}

// BindAuditor connects the engine to an online 4TD auditor: every
// non-permanent fault declares [start, clear+SettleGrace] as an
// expected-degradation window, so the campaign can assert zero
// violations outside declared windows.
func (e *Engine) BindAuditor(a *audit.Auditor) { e.aud = a }

// Deadline returns the simulated time by which the network must be
// reconverged: last fault clearing + settle grace + reconverge
// deadline. Valid after Schedule.
func (e *Engine) Deadline() sim.Time { return e.deadline }

// Schedule resolves every fault target against the topology and plants
// the injection events. Call once; returns an error (scheduling
// nothing) if any fault names an unknown device or cable.
func (e *Engine) Schedule() error {
	if e.scheduled {
		return fmt.Errorf("chaos: scenario already scheduled")
	}
	// Resolve every target first so a bad scenario fails atomically.
	lis := make([]int, len(e.sc.Faults))
	devs := make([]*core.Device, len(e.sc.Faults))
	var lastEnd sim.Time
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if len(f.Link) == 2 {
			li, err := e.net.Graph.LinkBetween(f.Link[0], f.Link[1])
			if err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
			lis[i] = li
		}
		if f.Device != "" {
			d, err := e.net.DeviceByName(f.Device)
			if err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
			devs[i] = d
		}
		if end := f.At.T + f.Duration.T; end > lastEnd {
			lastEnd = end
		}
	}
	e.deadline = lastEnd + e.sc.SettleGrace.T + e.sc.ReconvergeDeadline.T
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if !f.permanent() {
			e.temporal++
			// Adversarial faults declare no excuse window: a hardened
			// fabric is supposed to withstand an attacker, so any bound
			// violation one causes stays unexcused — that asymmetry is
			// what the Byzantine tolerance campaign measures.
			if e.aud != nil && !f.adversarial() {
				e.aud.ExpectDegradation(f.At.T, f.At.T+f.Duration.T+e.sc.SettleGrace.T,
					f.Kind+" "+f.target())
			}
		}
		rng := sim.NewRNG(e.seed, fmt.Sprintf("chaos/%d", i))
		switch f.Kind {
		case KindFlap:
			e.scheduleFlap(f, i, lis[i], rng)
		case KindBERBurst:
			e.scheduleBERBurst(f, i, lis[i])
		case KindBERDegrade:
			e.scheduleBERDegrade(f, i, lis[i])
		case KindGreyLoss:
			e.scheduleGreyLoss(f, i, lis[i])
		case KindGreyDelay:
			e.scheduleGreyDelay(f, i, lis[i])
		case KindFreqStep:
			e.scheduleFreqStep(f, i, devs[i])
		case KindTempRamp:
			e.scheduleTempRamp(f, i, devs[i])
		case KindCrash:
			e.scheduleCrash(f, i, devs[i])
		case KindLiar:
			e.scheduleRatchet(f, i, devs[i], rng, true)
		case KindOverclaim:
			e.scheduleRatchet(f, i, devs[i], rng, false)
		case KindSpoof:
			e.scheduleSpoof(f, i, lis[i], rng)
		}
	}
	e.scheduled = true
	return nil
}

// --- Per-kind compilers ------------------------------------------------

func (e *Engine) scheduleFlap(f *Fault, idx, li int, rng *sim.RNG) {
	end := f.At.T + f.Duration.T
	e.sch.At(f.At.T, func() {
		e.inject(f, idx, fmt.Sprintf("mean_up=%v mean_down=%v", f.MeanUp.T, f.MeanDown.T))
		var flip func(down bool)
		flip = func(down bool) {
			if e.sch.Now() >= end {
				return // the clear event below restores the link
			}
			if down {
				e.net.SetLinkDown(li)
				e.sch.After(rng.ExpTime(f.MeanDown.T), func() { flip(false) })
			} else {
				e.net.SetLinkUp(li)
				e.sch.After(rng.ExpTime(f.MeanUp.T), func() { flip(true) })
			}
		}
		flip(true)
	})
	e.sch.At(end, func() {
		e.net.SetLinkUp(li)
		e.clear(f, idx)
	})
}

func (e *Engine) scheduleBERBurst(f *Fault, idx, li int) {
	e.sch.At(f.At.T, func() {
		ab, ba := e.net.LinkWires(li)
		origAB, origBA := ab.BER(), ba.BER()
		e.inject(f, idx, fmt.Sprintf("ber=%g", f.BER))
		ab.SetBER(f.BER)
		ba.SetBER(f.BER)
		e.sch.At(f.At.T+f.Duration.T, func() {
			ab.SetBER(origAB)
			ba.SetBER(origBA)
			e.clear(f, idx)
		})
	})
}

func (e *Engine) scheduleBERDegrade(f *Fault, idx, li int) {
	e.sch.At(f.At.T, func() {
		ab, ba := e.net.LinkWires(li)
		e.inject(f, idx, fmt.Sprintf("ber=%g permanent", f.BER))
		ab.SetBER(f.BER)
		ba.SetBER(f.BER)
	})
}

func (e *Engine) scheduleGreyLoss(f *Fault, idx, li int) {
	e.sch.At(f.At.T, func() {
		w := e.wireFor(f, li)
		e.inject(f, idx, fmt.Sprintf("loss_p=%g dir=%s>%s", f.LossP, f.Link[0], f.Link[1]))
		w.SetLossP(f.LossP)
		e.sch.At(f.At.T+f.Duration.T, func() {
			w.SetLossP(0)
			e.clear(f, idx)
		})
	})
}

func (e *Engine) scheduleGreyDelay(f *Fault, idx, li int) {
	steps := f.Steps
	if steps <= 0 {
		steps = 10
	}
	e.sch.At(f.At.T, func() {
		w := e.wireFor(f, li)
		base := w.Delay()
		e.inject(f, idx, fmt.Sprintf("extra=%v steps=%d dir=%s>%s",
			f.ExtraDelay.T, steps, f.Link[0], f.Link[1]))
		interval := f.Duration.T / sim.Time(steps)
		for k := 1; k <= steps; k++ {
			k := k
			e.sch.After(interval*sim.Time(k), func() {
				// The ramp and the restore land at the same instant for
				// the last step; FIFO order applies the restore second.
				_ = w.SetDelay(base + f.ExtraDelay.T*sim.Time(k)/sim.Time(steps))
			})
		}
		e.sch.At(f.At.T+f.Duration.T, func() {
			_ = w.SetDelay(base)
			e.clear(f, idx)
		})
	})
}

func (e *Engine) scheduleFreqStep(f *Fault, idx int, dev *core.Device) {
	e.sch.At(f.At.T, func() {
		clk := dev.Clock()
		orig, lim := clk.PPM(), clk.MaxPPM()
		target := min(max(orig+f.PPMStep, -lim), lim)
		e.inject(f, idx, fmt.Sprintf("ppm %+.2f -> %+.2f", orig, target))
		clk.AdjustPPM(target)
		if f.Duration.T > 0 {
			e.sch.At(f.At.T+f.Duration.T, func() {
				clk.AdjustPPM(orig)
				e.clear(f, idx)
			})
		}
	})
}

func (e *Engine) scheduleTempRamp(f *Fault, idx int, dev *core.Device) {
	steps := f.Steps
	if steps <= 0 {
		steps = 10
	}
	e.sch.At(f.At.T, func() {
		clk := dev.Clock()
		orig, lim := clk.PPM(), clk.MaxPPM()
		e.inject(f, idx, fmt.Sprintf("ramp %+.2f ppm over %v", f.PPMStep, f.Duration.T))
		interval := f.Duration.T / sim.Time(steps)
		for k := 1; k <= steps; k++ {
			k := k
			e.sch.After(interval*sim.Time(k), func() {
				clk.AdjustPPM(min(max(orig+f.PPMStep*float64(k)/float64(steps), -lim), lim))
			})
		}
		e.sch.At(f.At.T+f.Duration.T, func() {
			clk.AdjustPPM(orig)
			e.clear(f, idx)
		})
	})
}

func (e *Engine) scheduleCrash(f *Fault, idx int, dev *core.Device) {
	e.sch.At(f.At.T, func() {
		e.inject(f, idx, fmt.Sprintf("restart after %v", f.Duration.T))
		dev.Crash()
		e.sch.At(f.At.T+f.Duration.T, func() {
			dev.Restart()
			e.clear(f, idx)
		})
	})
}

// scheduleRatchet compiles the two counter-inflation attacks. Every
// cadence (jittered by the fault's RNG stream) the device raises its
// outgoing-counter lie by JumpUnits; a liar additionally pushes each
// step through the unguarded BEACON-JOIN path so plain DTP adopts it
// immediately, while an overclaimer lets ordinary beacons carry a
// per-message delta small enough to slip under the bit-error guard.
// When the fault clears the lie is removed; the device's real counter
// was never touched, so it is back in bound as soon as the fabric's
// poisoned maximum decays into plain drift (or instantly, if hardened
// admission refused the lie all along).
func (e *Engine) scheduleRatchet(f *Fault, idx int, dev *core.Device, rng *sim.RNG, join bool) {
	end := f.At.T + f.Duration.T
	e.sch.At(f.At.T, func() {
		e.inject(f, idx, fmt.Sprintf("jump_units=%d cadence=%v", f.JumpUnits, f.Cadence.T))
		var fire func()
		fire = func() {
			if e.sch.Now() >= end {
				return // the clear event below removes the lie
			}
			dev.SetLieUnits(dev.LieUnits() + uint64(f.JumpUnits))
			if join {
				dev.BroadcastJoin()
			}
			e.sch.After(cadenceJitter(rng, f.Cadence.T), fire)
		}
		fire()
	})
	e.sch.At(end, func() {
		dev.SetLieUnits(0)
		e.clear(f, idx)
	})
}

// scheduleSpoof compiles an on-path beacon forgery: every cadence a
// counterfeit BEACON claiming the receiver's own counter plus JumpUnits
// is injected into the port on device Link[1], as if its peer (Link[0])
// had sent it. Tracking the victim's counter keeps every forgery inside
// the per-message guard, so only cumulative bounded-jump admission can
// tell the stream from an honest fast clock.
func (e *Engine) scheduleSpoof(f *Fault, idx, li int, rng *sim.RNG) {
	end := f.At.T + f.Duration.T
	rx := e.spoofTargetPort(f, li)
	e.sch.At(f.At.T, func() {
		e.inject(f, idx, fmt.Sprintf("jump_units=%d cadence=%v dir=%s>%s",
			f.JumpUnits, f.Cadence.T, f.Link[0], f.Link[1]))
		var fire func()
		fire = func() {
			if e.sch.Now() >= end {
				return
			}
			rx.InjectSpoofedBeacon(rx.Device().GlobalCounter() + uint64(f.JumpUnits))
			e.sch.After(cadenceJitter(rng, f.Cadence.T), fire)
		}
		fire()
	})
	e.sch.At(end, func() { e.clear(f, idx) })
}

// cadenceJitter spaces adversarial firings uniformly in [c/2, 3c/2]:
// the mean stays at the configured cadence while the per-fault RNG
// stream keeps the exact instants reproducible and independent of every
// other fault.
func cadenceJitter(rng *sim.RNG, c sim.Time) sim.Time {
	return rng.UniformTime(c/2, c+c/2)
}

// --- Bookkeeping -------------------------------------------------------

func (e *Engine) inject(f *Fault, idx int, params string) {
	e.injectedN++
	e.activeN++
	e.injected[f.Kind].Inc()
	e.activeG.Set(float64(e.activeN))
	e.tr.Record(e.sch.Now(), telemetry.KindChaosInject, f.target(),
		int64(idx), 0, f.Kind+" "+params)
}

func (e *Engine) clear(f *Fault, idx int) {
	e.clearedN++
	e.activeN--
	e.cleared[f.Kind].Inc()
	e.activeG.Set(float64(e.activeN))
	e.lastClear = e.sch.Now()
	e.tr.Record(e.sch.Now(), telemetry.KindChaosClear, f.target(),
		int64(idx), 0, f.Kind)
}

// Verify asserts the campaign's postconditions after the scheduler ran
// to at least Deadline(): every temporal fault injected and cleared,
// the network fully re-synchronized, and — when an auditor is bound —
// zero bound violations outside the declared degradation windows and a
// converged final state. It returns nil on success and a multi-line
// error naming every failed property otherwise.
func (e *Engine) Verify() error {
	if !e.scheduled {
		return fmt.Errorf("chaos: Verify before Schedule")
	}
	var probs []string
	if now := e.sch.Now(); now < e.deadline {
		probs = append(probs, fmt.Sprintf("simulation ran to %v, before the %v deadline", now, e.deadline))
	}
	if e.clearedN < e.temporal {
		probs = append(probs, fmt.Sprintf("%d of %d temporal faults never cleared", e.temporal-e.clearedN, e.temporal))
	}
	if !e.net.AllSynced() {
		probs = append(probs, "network not fully synchronized at deadline")
	}
	if e.aud != nil {
		if v := e.aud.Violations(); v > 0 {
			probs = append(probs, fmt.Sprintf("%d bound violations outside declared degradation windows", v))
		}
		if !e.aud.Converged() {
			probs = append(probs, "auditor: network not in bound at deadline")
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("chaos: scenario %q failed:\n  %s", e.sc.Name, strings.Join(probs, "\n  "))
	}
	return nil
}

// Summary renders a one-line campaign report.
func (e *Engine) Summary() string {
	s := fmt.Sprintf("chaos: scenario %q: %d faults injected, %d cleared, %d still active, last clear %v, deadline %v",
		e.sc.Name, e.injectedN, e.clearedN, e.activeN, e.lastClear, e.deadline)
	if e.aud != nil {
		s += fmt.Sprintf(", %d violations (%d excused)", e.aud.Violations(), e.aud.ExcusedViolations())
	}
	return s
}

// --- Target resolution -------------------------------------------------

// wireFor returns the Link[0] -> Link[1] direction of the fault's cable.
func (e *Engine) wireFor(f *Fault, li int) *link.Wire {
	ab, ba := e.net.LinkWires(li)
	if e.net.Graph.Nodes[e.net.Graph.Links[li].A].Name == f.Link[0] {
		return ab
	}
	return ba
}

// spoofTargetPort returns the port forged beacons arrive at: the one on
// device Link[1], whose peer (Link[0]) the attacker impersonates.
func (e *Engine) spoofTargetPort(f *Fault, li int) *core.Port {
	pa, pb := e.net.LinkPorts(li)
	if e.net.Graph.Nodes[e.net.Graph.Links[li].A].Name == f.Link[1] {
		return pa
	}
	return pb
}
