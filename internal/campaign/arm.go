package campaign

import (
	"errors"
	"fmt"
	"time"

	"github.com/dtplab/dtp"
)

// Spec describes one armed run: the network, what is attached to it and
// where its black box lands. RunPoint fills one from a grid point,
// dtpsim's single mode from its flags; every field is one of those
// flags or Grid fields.
type Spec struct {
	Topology dtp.Topology
	Seed     uint64
	Beacon   uint64 // BEACON interval in ticks
	Hardened bool
	Wander   bool    // 10 ms / 100 ppb oscillator random walk
	BER      float64 // > 0 also enables the parity bit
	Load     string  // "none" (or "") | "mtu" | "jumbo"

	// Registry and Tracer instrument this run alone (nil = none).
	// SchedMetrics also exports the event loop's own counters — the
	// deterministic ones only, so metric dumps stay byte-stable.
	Registry     *dtp.MetricsRegistry
	Tracer       *dtp.Tracer
	SchedMetrics bool

	Audit       bool
	AuditEvery  time.Duration
	Scenario    *dtp.ChaosScenario // nil = no fault injection
	SyncTimeout time.Duration

	// TimeService attaches the serving plane: a UTC broadcaster on the
	// first host, a TimeService on every other. LoadQPS > 0 adds in-sim
	// Poisson readers per served host; at 0 the caller probes with
	// ReadCheck.
	TimeService bool
	LoadQPS     float64
	// Discipline is the estimator every daemon of the run defaults to —
	// the plane's in particular. Probe, when set, attaches one more
	// daemon on the first host running that estimator. They stay two
	// fields: dtpsim -discipline means the first in single mode and the
	// second in a campaign, and a grid may ask for the plane and a probe
	// at once.
	Discipline string
	Probe      string

	// Timeline attaches the windowed timeline sampling every
	// TimelineEvery; FlightDir arms the flight recorder (and a timeline
	// for its bundles) and needs a Tracer.
	Timeline      bool
	TimelineEvery time.Duration
	FlightDir     string
}

// Rig is an armed, synchronized run: the System plus whatever the Spec
// attached (nil where it asked for nothing).
type Rig struct {
	Sys      *dtp.System
	Auditor  *dtp.Auditor
	Chaos    *dtp.ChaosEngine
	Plane    *dtp.TimePlane
	Probe    *dtp.Daemon
	Timeline *dtp.Timeline
	Recorder *dtp.FlightRecorder
}

// ErrNotSynced is matched (errors.Is) by the one Arm failure that is
// the run's rather than the Spec's: INIT did not complete within
// SyncTimeout.
var ErrNotSynced = errors.New("campaign: network not synchronized")

type notSynced struct{ error }

func (notSynced) Is(target error) bool { return target == ErrNotSynced }

// Arm builds the Spec's System, attaches everything it asks for and
// runs it to synchronization. It is the one place that knows the attach
// order, which is load-bearing: chaos and the serving plane bind to the
// auditor, so it comes first; the timeline and the flight recorder
// enumerate the auditors, daemons and planes that exist when they are
// built, so they come last; scheduler metrics must be on before Start
// or the depth sampler begins one event late. On error the System is
// closed and nothing is returned.
func Arm(s Spec) (_ *Rig, err error) {
	frameOctets := 0
	switch s.Load {
	case "", "none":
	case "mtu":
		frameOctets = 1522
	case "jumbo":
		frameOctets = 9022
	default:
		return nil, fmt.Errorf("campaign: unknown load %q (want none|mtu|jumbo)", s.Load)
	}
	opts := []dtp.Option{dtp.WithSeed(s.Seed), dtp.WithBeaconInterval(s.Beacon)}
	if s.Hardened {
		opts = append(opts, dtp.WithHardened())
	}
	if s.Wander {
		opts = append(opts, dtp.WithWander(10*time.Millisecond, 100))
	}
	if s.BER > 0 {
		opts = append(opts, dtp.WithBER(s.BER), dtp.WithParity())
	}
	if s.Registry != nil || s.Tracer != nil {
		opts = append(opts, dtp.WithTelemetry(s.Registry, s.Tracer))
	}
	if s.Discipline != "" {
		dc, err := dtp.ParseDiscipline(s.Discipline)
		if err != nil {
			return nil, err
		}
		opts = append(opts, dtp.WithDiscipline(dc))
	}
	sys, err := dtp.New(s.Topology, opts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	r := &Rig{Sys: sys}
	if s.SchedMetrics {
		sys.EnableSchedulerMetrics(false)
	}
	if s.Audit {
		r.Auditor = sys.Audit(dtp.AuditOptions{Interval: s.AuditEvery})
	}
	if s.Scenario != nil {
		if r.Chaos, err = sys.Chaos(dtp.ChaosOptions{Scenario: s.Scenario, Auditor: r.Auditor}); err != nil {
			return nil, err
		}
	}

	sys.Start()
	if err := sys.RunUntilSynced(s.SyncTimeout); err != nil {
		return nil, notSynced{err}
	}

	// The compressed calibration cadence matches what the plane's own
	// tests use; the shared auditor feeds the live bound into every
	// interval.
	if s.TimeService {
		if r.Plane, err = sys.TimePlane(dtp.TimePlaneOptions{
			CalInterval: 10 * time.Millisecond,
			Auditor:     r.Auditor,
			LoadQPS:     s.LoadQPS,
		}); err != nil {
			return nil, err
		}
	}
	// The probe's 5 ms cadence compresses the paper's ~1 s the same way
	// but gives the estimator enough samples to converge within even
	// the shortest campaign windows.
	if s.Probe != "" {
		dc, err := dtp.ParseDiscipline(s.Probe)
		if err != nil {
			return nil, err
		}
		g := sys.Graph()
		hosts := g.HostIDs()
		if len(hosts) == 0 {
			return nil, fmt.Errorf("campaign: topology has no host for the discipline probe")
		}
		if r.Probe, err = sys.Daemon(dtp.DaemonOptions{
			Host: g.Nodes[hosts[0]].Name, CalInterval: 5 * time.Millisecond, Discipline: dc,
		}); err != nil {
			return nil, err
		}
	}
	if frameOctets > 0 {
		sys.SetUniformLoad(frameOctets)
	}

	if s.Timeline || s.FlightDir != "" {
		r.Timeline = sys.Timeline(dtp.TimelineOptions{Interval: s.TimelineEvery})
	}
	if s.FlightDir != "" {
		if r.Recorder, err = sys.FlightRecorder(dtp.FlightOptions{Dir: s.FlightDir}); err != nil {
			return nil, err
		}
		// The recorder arms itself on bound violations and watchdog
		// demotions; the serving-plane trigger is wired here for in-sim
		// readers and called by the prober otherwise.
		if r.Plane != nil {
			for _, h := range r.Plane.Hosts() {
				if ld := r.Plane.Load(h); ld != nil {
					host := h
					ld.OnError = func(err error) { r.ReadStale(host, err) }
				}
			}
		}
	}
	return r, nil
}

// ReadStale trips the flight recorder when a served read failed closed
// on a *stale* snapshot: the publish loop stopped while readers still
// asked for time — what the black box exists to explain. No-snapshot
// errors are honest warm-up and pass.
func (r *Rig) ReadStale(host string, err error) {
	if r.Recorder != nil && errors.Is(err, dtp.ErrTimeStale) {
		r.Recorder.Trigger("read_stale", host)
	}
}

// VerifyChaos runs past the scenario's deadline — a measurement window
// may end before the last fault clears, and the verdict is only valid
// after it — and returns the engine's verdict, tripping the flight
// recorder on failure. Nil without a scenario.
func (r *Rig) VerifyChaos() error {
	if r.Chaos == nil {
		return nil
	}
	r.Sys.RunUntil(r.Chaos.Deadline())
	err := r.Chaos.Verify()
	if err != nil && r.Recorder != nil {
		r.Recorder.Trigger("chaos_verify_failed", err.Error())
	}
	return err
}
