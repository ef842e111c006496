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

// ErrTimeStale is the read path's stale-snapshot error, re-exported for
// errors.Is checks.
var ErrTimeStale = timesvc.ErrStale

// TimePlaneOptions configures the serving plane attached by TimePlane.
// The topology's first host broadcasts (counter, UTC) pairs (§5.2),
// standing in for the GPS/PTP-disciplined timeserver, and every other
// host is served.
type TimePlaneOptions struct {
	// CalInterval is the daemons' PCIe calibration cadence (0 = the
	// daemon default; compressed simulations want ~10ms).
	CalInterval time.Duration

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
	byHost      map[string]*planeHost // broadcaster and served hosts
}

// planeHost is one host's part of the plane: its daemon and, on a
// served host, the UTC follower, time service and optional read load.
type planeHost struct {
	d   *Daemon
	f   *daemon.UTCFollower
	svc *timesvc.Service
	ld  *timesvc.Load
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

	tp := &TimePlane{broadcaster: bc, hosts: served, byHost: map[string]*planeHost{}}
	attach := func(host string) (*planeHost, error) {
		d, err := s.Daemon(DaemonOptions{Host: host, CalInterval: o.CalInterval})
		if err != nil {
			return nil, err
		}
		ph := &planeHost{d: d}
		tp.byHost[host] = ph
		return ph, nil
	}
	bh, err := attach(bc)
	if err != nil {
		return nil, err
	}
	var followers []*daemon.UTCFollower
	for _, h := range served {
		ph, err := attach(h)
		if err != nil {
			return nil, err
		}
		ph.f = daemon.NewUTCFollower(ph.d.d, s.cfg.reg)
		followers = append(followers, ph.f)
		ph.svc = timesvc.NewService(ph.d.d, ph.f, aud, s.cfg.reg, s.cfg.tracer)
		if o.LoadQPS > 0 {
			ph.ld = timesvc.NewLoad(ph.svc, sim.NewRNG(s.cfg.seed, "timesvc-load/"+h), o.LoadQPS, s.cfg.reg)
		}
	}
	// Built last, so its first tick queues after every service's: the
	// plane's event order, which every artifact depends on.
	tp.b = daemon.NewUTCBroadcaster(bh.d.d, daemon.TrueUTC{Sch: s.sch}, followers)
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
	ph := tp.byHost[host]
	if ph == nil || ph.svc == nil {
		return nil, fmt.Errorf("dtp: no time service on %q", host)
	}
	return ph.svc, nil
}

// Daemon returns the plane's daemon on the named host — the broadcaster
// or a served host.
func (tp *TimePlane) Daemon(host string) (*Daemon, error) {
	ph := tp.byHost[host]
	if ph == nil {
		return nil, fmt.Errorf("dtp: no time-plane daemon on %q", host)
	}
	return ph.d, nil
}

// UTCErrorPs returns the named served host's ground-truth |UTC estimate
// - true time| in ps (§5.2). The broadcaster follows nobody, and a
// follower has no estimate before its first (counter, UTC) pair: both
// are errors.
func (tp *TimePlane) UTCErrorPs(host string) (float64, error) {
	ph := tp.byHost[host]
	if ph == nil || ph.f == nil {
		return 0, fmt.Errorf("dtp: %q follows no UTC broadcast", host)
	}
	f := ph.f
	if _, have := f.Anchor(); !have {
		return 0, fmt.Errorf("dtp: no UTC pair received on %q yet", host)
	}
	return f.UTCErrorPs(), nil
}

// Clock returns the named host's in-sim clock, the lock-free,
// allocation-free reader of its TimeService (TSC timebase; only usable
// while the simulation goroutine is idle or from scheduler callbacks).
func (tp *TimePlane) Clock(host string) (*timesvc.Clock, error) {
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
func (tp *TimePlane) Load(host string) *timesvc.Load {
	if ph := tp.byHost[host]; ph != nil {
		return ph.ld
	}
	return nil
}

// HealthHandler serves the plane's /healthz summary: per served host,
// publish/degraded counters, the live bound, and the ε-budget
// attribution identifying which error source dominates the served
// interval width.
func (tp *TimePlane) HealthHandler() http.Handler {
	services := make(map[string]*timesvc.Service, len(tp.hosts))
	for _, h := range tp.hosts {
		services[h] = tp.byHost[h].svc
	}
	return timesvc.HealthHandler(services)
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
	for _, h := range tp.hosts {
		ph := tp.byHost[h]
		ph.svc.Stop()
		if ph.ld != nil {
			ph.ld.Stop()
		}
	}
}
