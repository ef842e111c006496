package campaign

import (
	"errors"
	"fmt"
	"time"

	"github.com/dtplab/dtp"
)

// Spec is one run to arm: its record, the Point, plus what cannot go in
// a file. runPoint fills one per grid point, dtpsim's single mode one
// for the point its flags make.
type Spec struct {
	Point

	// Registry and Tracer instrument this run alone (nil = none).
	// SchedMetrics also exports the event loop's own counters.
	Registry     *dtp.MetricsRegistry
	Tracer       *dtp.Tracer
	SchedMetrics bool

	// Audit attaches the online auditor at Point.AuditEvery.
	Audit bool
	// LoadQPS > 0 adds in-sim Poisson readers per served host when
	// Point.TimeService attaches the plane; at 0 the caller probes with
	// ReadCheck.
	LoadQPS float64
	// Timeline attaches the windowed timeline sampling every
	// Point.SamplePeriod; FlightDir arms the flight recorder (and a
	// timeline for its bundles) and needs a Tracer.
	Timeline  bool
	FlightDir string
	// Estimator is the estimator every daemon of the run defaults to —
	// the plane's in particular; Point.Discipline is one more daemon, the
	// probe. A grid may ask for the plane and a probe at once.
	Estimator string
}

// Rig is an armed, synchronized run: the System plus whatever the Spec
// attached (nil where it asked for nothing).
type Rig struct {
	Sys      *dtp.System
	Scenario *dtp.ChaosScenario // what Chaos injects: the file plus synthesized liars
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

// frameOctets maps each link-load preset to the frame size every link
// carries back to back (0 = idle links).
var frameOctets = map[string]int{"none": 0, "mtu": 1522, "jumbo": 9022}

// Arm is the one translation of a run record's strings into a System
// (topology, scenario plus liars, load, disciplines); it attaches
// everything the Spec asks for and runs it to synchronization. It is the
// one place that knows the attach order, which is load-bearing: chaos and the serving plane bind to the
// auditor, so it comes first; the timeline and the flight recorder
// enumerate the auditors, daemons and planes that exist when they are
// built, so they come last; scheduler metrics must be on before Start
// or the depth sampler begins one event late. On error the System is
// closed and nothing is returned.
func Arm(s Spec) (_ *Rig, err error) {
	g, err := dtp.ParseTopology(s.Topo)
	if err != nil {
		return nil, err
	}
	frame, ok := frameOctets[s.Load]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown load %q (want none|mtu|jumbo)", s.Load)
	}
	r := &Rig{}
	if s.Chaos != "" {
		if r.Scenario, err = dtp.LoadChaosScenario(s.Chaos); err != nil {
			return nil, err
		}
	}
	if s.Liars > 0 {
		if r.Scenario, err = withLiars(r.Scenario, g, s.Point); err != nil {
			return nil, err
		}
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
	if s.Estimator != "" {
		dc, err := dtp.ParseDiscipline(s.Estimator)
		if err != nil {
			return nil, err
		}
		opts = append(opts, dtp.WithDiscipline(dc))
	}
	sys, err := dtp.New(g, opts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()
	r.Sys = sys
	if s.SchedMetrics {
		sys.EnableSchedulerMetrics()
	}
	if s.Audit {
		r.Auditor = sys.Audit(dtp.AuditOptions{Interval: s.AuditEvery.Std()})
	}
	if r.Scenario != nil {
		if r.Chaos, err = sys.Chaos(dtp.ChaosOptions{Scenario: r.Scenario, Auditor: r.Auditor}); err != nil {
			return nil, err
		}
	}

	sys.Start()
	if err := sys.RunUntilSynced(s.SyncTimeout.Std()); err != nil {
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
	// the shortest campaign windows. Every stock topology has hosts.
	if s.Discipline != "" {
		dc, err := dtp.ParseDiscipline(s.Discipline)
		if err != nil {
			return nil, err
		}
		if r.Probe, err = sys.Daemon(dtp.DaemonOptions{
			Host: g.Nodes[g.HostIDs()[0]].Name, CalInterval: 5 * time.Millisecond, Discipline: dc,
		}); err != nil {
			return nil, err
		}
	}
	if frame > 0 {
		sys.SetUniformLoad(frame)
	}

	if s.Timeline || s.FlightDir != "" {
		r.Timeline = sys.Timeline(dtp.TimelineOptions{Interval: s.SamplePeriod.Std()})
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
					ld.OnError = func(err error) { r.readStale(host, err) }
				}
			}
		}
	}
	return r, nil
}

// readStale trips the flight recorder when a served read failed closed
// on a *stale* snapshot: the publish loop stopped while readers still
// asked for time — what the black box exists to explain. No-snapshot
// errors are honest warm-up and pass.
func (r *Rig) readStale(host string, err error) {
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

// withLiars appends p.Liars synthesized simultaneous Byzantine liar
// faults to the scenario (creating one when the point has no Chaos
// file). Liar devices are picked by a deterministic stride across the
// topology's hosts — a pure function of (topo, liar count), so the same
// grid point always attacks the same devices and campaign output stays
// byte-identical at any -jobs width. Hosts, not switches: a compromised
// server is the threat model, and quarantining every link of a lying
// switch would partition honest devices — a different failure mode than
// the tolerance curve measures. Fault shape follows
// examples/chaos/liar.json with timings compressed to campaign scale:
// all liars start together at 400 µs (comfortably past INIT on every
// stock topology) and lie for half the measurement window, leaving the
// other half (plus the scenario grace) for reconvergence.
func withLiars(sc *dtp.ChaosScenario, g dtp.Topology, p Point) (*dtp.ChaosScenario, error) {
	hosts := g.HostIDs()
	if p.Liars >= len(hosts) {
		return nil, fmt.Errorf("campaign: %d liars but topology %q has only %d host devices (at least one honest host required)",
			p.Liars, p.Topo, len(hosts))
	}
	if sc == nil {
		sc = &dtp.ChaosScenario{
			Name:        fmt.Sprintf("liars-%d", p.Liars),
			SettleGrace: dtp.ChaosD(100 * time.Microsecond),
			// Reconvergence after a quarantine cooldown and re-INIT
			// round; generous enough for every liar count the curve
			// sweeps, short enough for CI.
			ReconvergeDeadline: dtp.ChaosD(3 * time.Millisecond),
		}
	}
	for i := 0; i < p.Liars; i++ {
		dev := g.Nodes[hosts[i*len(hosts)/p.Liars]]
		sc.Faults = append(sc.Faults, dtp.ChaosFault{
			Kind:      "liar",
			Device:    dev.Name,
			At:        dtp.ChaosD(400 * time.Microsecond),
			Duration:  dtp.ChaosD(p.Duration.Std() / 2),
			JumpUnits: 5000,
			Cadence:   dtp.ChaosD(2 * time.Microsecond),
		})
	}
	return sc, nil
}
