package dtp

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/timesvc"
)

// TimeService is one host's serving-plane instance (internal/timesvc):
// a calibration loop publishing immutable snapshots by atomic pointer,
// which lock-free readers interpolate TrueTime-style [earliest, latest]
// intervals from.
type TimeService = timesvc.Service

// TimeClock is the lock-free, allocation-free reader of a TimeService.
type TimeClock = timesvc.Clock

// TimeInterval is a TrueTime-style uncertainty interval in UTC ps.
type TimeInterval = timesvc.Interval

// Read-path sentinel errors, re-exported for errors.Is checks.
var (
	ErrTimeNoSnapshot = timesvc.ErrNoSnapshot
	ErrTimeStale      = timesvc.ErrStale
)

// TimePlaneOptions configures the serving plane attached by TimePlane.
// The topology's first host broadcasts (counter, UTC) pairs (§5.2),
// standing in for the GPS/PTP-disciplined timeserver, and every other
// host is served.
type TimePlaneOptions struct {
	// CalInterval is the daemons' PCIe calibration cadence (0 = the
	// daemon default; compressed simulations want ~10ms).
	CalInterval time.Duration

	// BroadcastInterval is the UTC pair cadence (default 10 ms). It stays
	// an option because dtpd broadcasts every 50 ms.
	BroadcastInterval time.Duration

	// Auditor supplies the live cross-host 4TD bound folded into every
	// published interval. Nil attaches a fresh default auditor.
	Auditor *Auditor

	// LoadQPS, when positive, drives Poisson read traffic at that mean
	// rate against every served host from inside the simulation,
	// recording width/coverage telemetry (dtp_timesvc_* metrics).
	LoadQPS float64
}

// TimePlane is a running serving plane: one UTC broadcaster plus a
// TimeService per served host. Build with System.TimePlane; stopped by
// System.Close.
type TimePlane struct {
	broadcaster string
	hosts       []string // served hosts, sorted
	b           *daemon.UTCBroadcaster
	daemons     map[string]*Daemon // broadcaster and served hosts
	services    map[string]*timesvc.Service
	followers   map[string]*daemon.UTCFollower
	loads       map[string]*timesvc.Load
}

// TimePlane attaches the serving plane: a daemon on every involved
// host, the §5.2 UTC broadcast from the broadcaster, and a TimeService
// per served host whose published interval half-width composes the live
// audit bound, both daemons' self-reported estimate errors, and the
// measured broadcast residual. The plane (daemons, broadcaster,
// services, loads) is stopped by Close.
func (s *System) TimePlane(o TimePlaneOptions) (*TimePlane, error) {
	var hostNames []string
	for _, id := range s.net.Graph.HostIDs() {
		hostNames = append(hostNames, s.net.Graph.Nodes[id].Name)
	}
	if len(hostNames) < 2 {
		return nil, fmt.Errorf("dtp: TimePlane needs at least 2 hosts (broadcaster + served), topology has %d", len(hostNames))
	}
	bc, served := hostNames[0], hostNames[1:]
	sort.Strings(served)

	aud := o.Auditor
	if aud == nil {
		aud = s.Audit(AuditOptions{})
	}

	daemons := map[string]*Daemon{}
	newDaemon := func(host string) (*daemon.Daemon, error) {
		w, err := s.Daemon(DaemonOptions{Host: host, CalInterval: o.CalInterval})
		if err != nil {
			return nil, err
		}
		daemons[host] = w
		return w.d, nil
	}

	bd, err := newDaemon(bc)
	if err != nil {
		return nil, err
	}
	bcast := sim.Time(10 * sim.Millisecond)
	if o.BroadcastInterval > 0 {
		bcast = sim.FromStd(o.BroadcastInterval)
	}
	b := daemon.NewUTCBroadcaster(bd, daemon.TrueUTC{Sch: s.sch}, bcast)

	tp := &TimePlane{
		broadcaster: bc,
		hosts:       served,
		b:           b,
		daemons:     daemons,
		services:    map[string]*timesvc.Service{},
		followers:   map[string]*daemon.UTCFollower{},
		loads:       map[string]*timesvc.Load{},
	}
	for _, h := range served {
		d, err := newDaemon(h)
		if err != nil {
			return nil, err
		}
		f := daemon.NewUTCFollower(d)
		if s.cfg.reg != nil {
			f.Instrument(s.cfg.reg)
		}
		b.Subscribe(f)
		svc := timesvc.NewService(d, f, aud)
		svc.Instrument(s.cfg.reg, s.cfg.tracer)
		svc.Start()
		tp.services[h] = svc
		tp.followers[h] = f
		if o.LoadQPS > 0 {
			ld := timesvc.NewLoad(svc, sim.NewRNG(s.cfg.seed, "timesvc-load/"+h),
				timesvc.LoadConfig{QPS: o.LoadQPS})
			ld.Instrument(s.cfg.reg)
			ld.Start()
			tp.loads[h] = ld
		}
	}
	b.Start()
	s.timeplanes = append(s.timeplanes, tp)
	return tp, nil
}

// Broadcaster returns the UTC-broadcasting host's name.
func (tp *TimePlane) Broadcaster() string { return tp.broadcaster }

// Hosts returns the served hosts, sorted.
func (tp *TimePlane) Hosts() []string { return append([]string(nil), tp.hosts...) }

// Service returns the named host's TimeService, or an error for hosts
// the plane does not serve.
func (tp *TimePlane) Service(host string) (*TimeService, error) {
	svc, ok := tp.services[host]
	if !ok {
		return nil, fmt.Errorf("dtp: no time service on %q", host)
	}
	return svc, nil
}

// Daemon returns the plane's daemon on the named host — the broadcaster
// or a served host.
func (tp *TimePlane) Daemon(host string) (*Daemon, error) {
	d, ok := tp.daemons[host]
	if !ok {
		return nil, fmt.Errorf("dtp: no time-plane daemon on %q", host)
	}
	return d, nil
}

// UTCErrorPs returns the named served host's ground-truth |UTC estimate
// - true time| in ps (§5.2). The broadcaster follows nobody, and a
// follower has no estimate before its first (counter, UTC) pair: both
// are errors.
func (tp *TimePlane) UTCErrorPs(host string) (float64, error) {
	f, ok := tp.followers[host]
	if !ok {
		return 0, fmt.Errorf("dtp: %q follows no UTC broadcast", host)
	}
	if _, have := f.Anchor(); !have {
		return 0, fmt.Errorf("dtp: no UTC pair received on %q yet", host)
	}
	return f.UTCErrorPs(), nil
}

// Clock returns the named host's in-sim TimeClock (TSC timebase; only
// usable while the simulation goroutine is idle or from scheduler
// callbacks).
func (tp *TimePlane) Clock(host string) (*TimeClock, error) {
	svc, err := tp.Service(host)
	if err != nil {
		return nil, err
	}
	return svc.Clock(), nil
}

// ReadCheck samples the named host's clock at the current simulated
// instant and verifies the interval against ground truth: the interval
// width and whether true time fell inside. Campaign runs and tests use
// it as the serving-plane invariant probe.
func (tp *TimePlane) ReadCheck(host string) (widthPs float64, covered bool, err error) {
	svc, err := tp.Service(host)
	if err != nil {
		return 0, false, err
	}
	return svc.ReadCheck()
}

// Load returns the named host's in-sim request-load model (nil when the
// plane was built without LoadQPS).
func (tp *TimePlane) Load(host string) *timesvc.Load { return tp.loads[host] }

// TimeHandler serves the named host's clock over HTTP (GET now /
// interval as JSON) — mountable on the same mux as TelemetryHandler.
func (tp *TimePlane) TimeHandler(host string) (http.Handler, error) {
	c, err := tp.Clock(host)
	if err != nil {
		return nil, err
	}
	return timesvc.Handler(host, c), nil
}

// HealthHandler serves the plane's /healthz summary: per served host,
// publish/degraded counters, the live bound, and the ε-budget
// attribution identifying which error source dominates the served
// interval width.
func (tp *TimePlane) HealthHandler() http.Handler {
	return timesvc.HealthHandler(tp.services)
}

// Attribution returns the named host's ε-budget split.
func (tp *TimePlane) Attribution(host string) (timesvc.Attribution, error) {
	svc, err := tp.Service(host)
	if err != nil {
		return timesvc.Attribution{}, err
	}
	return svc.Attribution(), nil
}

// stop halts the plane's broadcaster, services, and loads (daemons are
// tracked and stopped by the System itself).
func (tp *TimePlane) stop() {
	tp.b.Stop()
	for _, svc := range tp.services {
		svc.Stop()
	}
	for _, ld := range tp.loads {
		ld.Stop()
	}
}
