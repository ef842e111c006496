package chaos

import (
	"fmt"
	"strings"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Engine is a Scenario compiled into scheduler events over a live
// network. Build it with NewEngine before (or after) the network
// starts, run the scheduler to at least Deadline() and call Verify.
type Engine struct {
	net *core.Network
	sch *sim.Scheduler
	sc  Scenario
	aud *audit.Auditor
	tr  *telemetry.Tracer

	injected map[string]*telemetry.Counter
	cleared  map[string]*telemetry.Counter
	activeG  *telemetry.Gauge

	injectedN int
	clearedN  int
	temporal  int // faults that must clear before Verify passes
	lastClear sim.Time
	deadline  sim.Time
}

// NewEngine validates sc, resolves every fault target against n and
// schedules each fault's injection; if a fault names an unknown device
// or cable it schedules nothing and returns the error. The seed should
// be the run seed: each fault derives its own RNG stream from it, so
// fault randomness is reproducible and independent of everything else.
// Injections and clears count into reg's dtp_chaos_* metrics and emit
// chaos_inject / chaos_clear events into tr (either may be nil). A
// non-nil aud receives every accidental, non-permanent fault's
// [start, clear+SettleGrace] as an expected-degradation window, so
// Verify can require zero violations outside declared windows.
func NewEngine(n *core.Network, sc *Scenario, seed uint64,
	reg *telemetry.Registry, tr *telemetry.Tracer, aud *audit.Auditor) (*Engine, error) {
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	e := &Engine{net: n, sch: n.Sch, sc: *sc, aud: aud, tr: tr,
		injected: map[string]*telemetry.Counter{}, cleared: map[string]*telemetry.Counter{}}
	e.sc.fillDefaults()
	// Register per-kind series in fault order so the registry layout is
	// a deterministic function of the scenario.
	for _, f := range e.sc.Faults {
		if _, ok := e.injected[f.Kind]; !ok {
			e.injected[f.Kind] = reg.Counter("dtp_chaos_faults_injected_total",
				"Faults injected by the chaos engine.", "kind", f.Kind)
			e.cleared[f.Kind] = reg.Counter("dtp_chaos_faults_cleared_total",
				"Faults cleared (impairment removed) by the chaos engine.", "kind", f.Kind)
		}
	}
	e.activeG = reg.Gauge("dtp_chaos_active_faults",
		"Faults currently active (permanent ones never clear).")

	// Resolve every target first so a bad scenario fails atomically.
	hits := make([]hit, len(e.sc.Faults))
	var lastEnd sim.Time
	for i := range hits {
		h := &hits[i]
		h.Fault, h.idx = &e.sc.Faults[i], i
		var err error
		if kinds[h.Kind].link {
			h.li, err = n.Graph.LinkBetween(h.Link[0], h.Link[1])
		} else {
			h.dev, err = n.DeviceByName(h.Device)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: fault %d: %w", i, err)
		}
		lastEnd = max(lastEnd, h.end())
	}
	e.deadline = lastEnd + e.sc.SettleGrace.T + e.sc.ReconvergeDeadline.T
	for i := range hits {
		h := &hits[i]
		h.rng = sim.NewRNG(seed, fmt.Sprintf("chaos/%d", i))
		if !h.permanent() {
			e.temporal++
			if aud != nil && !kinds[h.Kind].adversarial {
				aud.ExpectDegradation(h.At.T, h.end()+e.sc.SettleGrace.T)
			}
		}
		e.sch.At(h.At.T, func() { e.inject(h) })
	}
	return e, nil
}

// Deadline returns the simulated time by which the network must be
// reconverged: last fault clearing + settle grace + reconverge
// deadline.
func (e *Engine) Deadline() sim.Time { return e.deadline }

// inject is every fault's one lifecycle: record the injection, start
// the fault and, unless it is permanent, arm its clear. The clear is
// armed here, not up front, so that it holds the restore start just
// returned, and so that it runs after anything start scheduled for the
// same instant (a ramp's last step).
func (e *Engine) inject(h *hit) {
	k := kinds[h.Kind]
	e.injectedN++
	e.injected[h.Kind].Inc()
	e.activeG.Set(float64(e.injectedN - e.clearedN))
	e.tr.Record(e.sch.Now(), telemetry.KindChaosInject, h.target(),
		int64(h.idx), 0, h.Kind+" "+k.detail(h))
	restore := k.start(e, h)
	if h.permanent() {
		return
	}
	e.sch.At(h.end(), func() {
		if restore != nil {
			restore()
		}
		e.clearedN++
		e.cleared[h.Kind].Inc()
		e.activeG.Set(float64(e.injectedN - e.clearedN))
		e.lastClear = e.sch.Now()
		e.tr.Record(e.sch.Now(), telemetry.KindChaosClear, h.target(),
			int64(h.idx), 0, h.Kind)
	})
}

// Verify asserts the campaign's postconditions after the scheduler ran
// to at least Deadline(): every temporal fault injected and cleared,
// the network fully re-synchronized, and — when an auditor is bound —
// zero bound violations outside the declared degradation windows and a
// converged final state. It returns nil on success and a multi-line
// error naming every failed property otherwise.
func (e *Engine) Verify() error {
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
		e.sc.Name, e.injectedN, e.clearedN, e.injectedN-e.clearedN, e.lastClear, e.deadline)
	if e.aud != nil {
		s += fmt.Sprintf(", %d violations (%d excused)", e.aud.Violations(), e.aud.ExcusedViolations())
	}
	return s
}
