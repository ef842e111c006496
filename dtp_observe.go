package dtp

import (
	"fmt"
	"math"
	"time"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Timeline is the windowed time-series store from internal/telemetry: a
// fixed ring of periodic snapshot rows giving gauges and rates over
// time, exportable as deterministic JSONL and mountable as an HTTP
// handler (dtpd's /timeline).
type Timeline = telemetry.Timeline

// TimelineOptions configures the timeline attached by System.Timeline,
// which keeps the last 1024 rows. The zero value samples every 1 ms of
// simulated time.
type TimelineOptions struct {
	// Interval is the simulated sampling cadence (0 = 1 ms).
	Interval time.Duration
}

// Timeline attaches and starts a windowed time-series store sampling
// the system's health signals: the live 4TD bound and worst pairwise
// offset, trace-ring drop accounting, the most recent auditor's
// worst-offset/min-slack and violation rate, and — per TimePlane host —
// the served interval half-width in ps (NaN while that host is not
// serving). Call it AFTER Audit and TimePlane so their columns
// register (campaign.Arm is the reference caller for the whole attach
// order); a timeline wants exactly the signals whose trend explains a
// later breach.
//
// The returned Timeline is also remembered as the default for
// FlightRecorder bundles.
func (s *System) Timeline(o TimelineOptions) *Timeline {
	var cols []telemetry.TimelineColumn
	gauge := func(name string, probe func() float64) {
		cols = append(cols, telemetry.TimelineColumn{Name: name, Probe: probe})
	}
	gauge("bound_ticks", func() float64 { return float64(s.net.BoundUnits()) })
	gauge("max_offset_ticks", func() float64 { return float64(s.net.MaxPairwiseOffset()) })
	if tr := s.cfg.tracer; tr != nil {
		gauge("trace_dropped", func() float64 { return float64(tr.Dropped()) })
	}
	if len(s.auditors) > 0 {
		a := s.auditors[len(s.auditors)-1]
		gauge("audit_worst_offset_ticks", func() float64 { return float64(a.WorstOffsetUnits()) })
		gauge("audit_min_slack_ticks", func() float64 {
			sl := a.MinSlackUnits()
			if sl == math.MaxInt64 {
				return math.NaN()
			}
			return float64(sl)
		})
		cols = append(cols, telemetry.TimelineColumn{Name: "audit_violations_per_s",
			Probe: func() float64 { return float64(a.Violations()) }, Rate: true})
	}
	for _, w := range s.daemons {
		// Per-daemon discipline health: the live estimate error against
		// the hardware counter and the discipline's own error bound. A
		// breach shows as the offset trend escaping the (self-reported)
		// bound — the exact signal the discipline comparison sweeps on.
		d := w.d
		host := d.Device().Name()
		gauge("daemon_offset_ticks_"+host, func() float64 { return d.OffsetUnits() })
		gauge("daemon_err_ticks_"+host, func() float64 {
			e := d.EstimateErrorUnits()
			if math.IsInf(e, 0) {
				return math.NaN()
			}
			return e
		})
	}
	for _, tp := range s.timeplanes {
		for _, h := range tp.Hosts() {
			// The interpolated read half-width, not the frozen published
			// one: between publishes it grows with snapshot age, so the
			// timeline shows the served interval *widening* toward a
			// breach (then null once reads fail closed).
			c := tp.byHost[h].svc.Clock()
			gauge("eps_ps_"+h, func() float64 {
				iv, err := c.NowInterval()
				if err != nil {
					return math.NaN()
				}
				return iv.HalfWidthPs()
			})
		}
	}
	tl := telemetry.NewTimeline(s.sch, sim.FromStd(o.Interval), cols)
	s.timeline = tl
	return tl
}

// FlightRecorder is the always-on black box from internal/telemetry: on
// a trigger it dumps a causally ordered debug bundle (trailing trace
// events, metrics, the timeline window, protocol/daemon/serving-plane
// state) to a seed-deterministic JSON file.
type FlightRecorder = telemetry.Recorder

// FlightOptions configures the recorder attached by
// System.FlightRecorder. Bundle budget (4 per run), per-reason cooldown
// (1 ms) and trace depth (256 events) are fixed; a bundle carries the
// System.Timeline ring when there is one.
type FlightOptions struct {
	// Dir is where bundles land (created if absent). Required.
	Dir string
}

// FlightRecorder attaches a flight recorder armed on the trace kinds
// that mean "the protocol's promise broke": unexcused audit bound
// violations and SYNCED→INIT watchdog demotions. Serving-plane
// triggers (a read failing closed, a chaos postcondition failing) are
// wired by the caller via Trigger — see TimePlane loads' OnError and
// the campaign runner. Requires WithTelemetry with a tracer: the
// trigger model rides trace events.
//
// Call it AFTER Audit/TimePlane/Timeline so the state providers and the
// bundled timeline cover everything attached (campaign.Arm is the
// reference caller).
func (s *System) FlightRecorder(o FlightOptions) (*FlightRecorder, error) {
	if s.cfg.tracer == nil {
		return nil, fmt.Errorf("dtp: FlightRecorder needs WithTelemetry with a tracer (triggers ride trace events)")
	}
	rec, err := telemetry.NewRecorder(telemetry.FlightConfig{Dir: o.Dir, Seed: int64(s.cfg.seed)},
		s.cfg.reg, s.cfg.tracer, s.timeline, s.sch.Now)
	if err != nil {
		return nil, err
	}

	rec.AddState("devices", func() any {
		out := map[string]any{}
		for _, name := range s.Devices() {
			d, err := s.net.DeviceByName(name)
			if err != nil {
				continue
			}
			ports := map[string]string{}
			for _, p := range d.Ports() {
				ports[p.PairName()] = p.State()
			}
			out[name] = map[string]any{
				"counter": d.GlobalCounter(),
				"ports":   ports,
			}
		}
		if rej, quar := s.net.ByzantineStats(); rej > 0 || quar > 0 {
			out["byzantine"] = map[string]any{
				"counter_rejections": rej,
				"port_quarantines":   quar,
			}
		}
		return out
	})
	if len(s.auditors) > 0 {
		a := s.auditors[len(s.auditors)-1]
		rec.AddState("audit", func() any {
			st := map[string]any{
				"checks":             a.Checks(),
				"pair_checks":        a.PairChecks(),
				"violations":         a.Violations(),
				"excused_violations": a.ExcusedViolations(),
				"worst_offset_units": a.WorstOffsetUnits(),
				"converged":          a.Converged(),
			}
			if sl := a.MinSlackUnits(); sl != math.MaxInt64 {
				st["min_slack_units"] = sl
			}
			if v := a.LastViolation(); v != nil {
				st["last_violation"] = fmt.Sprintf("%s~%s offset=%d bound=%d at=%d",
					v.A, v.B, v.OffsetUnits, v.BoundUnits, int64(v.At))
			}
			return st
		})
	}
	if len(s.daemons) > 0 {
		daemons := s.daemons
		rec.AddState("daemons", func() any {
			out := map[string]any{}
			for _, w := range daemons {
				st := map[string]any{
					"estimate_units": w.d.Estimate(),
					"offset_units":   w.d.OffsetUnits(),
					"discipline":     w.d.Discipline(),
					"ratio_ppm":      w.RatioPPM(),
					"dropped":        w.d.DroppedSamples(),
					"resets":         w.d.DisciplineResets(),
				}
				// +Inf (no calibration yet) is not JSON-encodable.
				if e := w.d.EstimateErrorUnits(); !math.IsInf(e, 0) {
					st["err_units"] = e
				}
				out[w.d.Device().Name()] = st
			}
			return out
		})
	}
	if len(s.timeplanes) > 0 {
		tps := s.timeplanes
		rec.AddState("timesvc", func() any {
			out := map[string]any{}
			for _, tp := range tps {
				for _, h := range tp.Hosts() {
					svc := tp.byHost[h].svc
					out[h] = map[string]any{
						"publishes":   svc.Publishes(),
						"degraded":    svc.DegradedTicks(),
						"attribution": svc.Attribution(),
					}
				}
			}
			return out
		})
	}

	rec.Arm(telemetry.KindBoundViolation, telemetry.KindPortDemoted,
		telemetry.KindPortQuarantined)
	return rec, nil
}
