package timesvc

import (
	"sync/atomic"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// The calibration/publish side has nothing to tune. The floats are typed
// so every product with one is float64 arithmetic.
const (
	// publishInterval is the snapshot cadence in simulated time. Each
	// tick folds the daemon, follower, and audit state into one
	// immutable snapshot.
	publishInterval = 10 * sim.Millisecond

	// softwareMarginUnits is the §5.1 daemon software-access margin
	// added to the audit bound, in counter units: the paper's ±4
	// smoothed ticks on each of the two daemons involved.
	softwareMarginUnits = 8

	// residualFactor and residualFloorPs turn the follower's smoothed
	// |prediction residual| into the broadcast-error component of the
	// bound: max(residualFloorPs, residualFactor × residual). The factor
	// covers residual tails above the EWMA; the floor (25 ns) covers the
	// cold start before the EWMA has seen enough broadcasts.
	residualFactor  float64 = 4
	residualFloorPs float64 = 25_000

	// driftPPM widens published intervals as they age, covering ratio
	// estimation error between publishes: the daemon's ratio slack plus
	// the follower's, see discipline's maSlackPPM.
	driftPPM float64 = 5

	// MaxAge is how stale a snapshot may be served before reads fail
	// closed.
	MaxAge = 8 * publishInterval

	// warmupPairs is how many ratio measurements the UTC follower must
	// have folded in before the service publishes at all: before that,
	// the frequency-ratio and residual estimates are too raw to stand
	// behind an error bound.
	warmupPairs = 5
)

// Degradation reason codes (V1 of timesvc_degraded trace events).
const (
	// degradedNoCalibration: the daemon has not completed a PCIe
	// calibration yet.
	degradedNoCalibration = iota
	// degradedNoBroadcast: no UTC broadcast pair has arrived.
	degradedNoBroadcast
	// degradedNoBound: the auditor has no live all-pairs bound for this
	// host (not converged, or the host is partitioned).
	degradedNoBound
	// degradedWarmup: the UTC follower has fewer than warmupPairs ratio
	// measurements; estimates are too raw to bound honestly.
	degradedWarmup
)

var degradedReasons = [...]string{"no_calibration", "no_broadcast", "no_bound", "warmup"}

// Service is the calibration/publish half of one host's time service.
// On every publish tick (a scheduler event, so strictly on the
// simulation goroutine) it composes
//
//	ε = (liveAuditBound + daemonErr + broadcasterErr + softwareMargin) · psPerUnit
//	  + max(residualFloor, residualFactor · broadcastResidual)
//
// and publishes a snapshot anchored in the host's TSC domain. When any
// input is unavailable — daemon uncalibrated, no broadcast yet, no
// live audit bound — the tick publishes nothing and counts the reason;
// the previous snapshot then ages out at MaxAge and readers fail
// closed, which is the honest behavior for a clock that has lost its
// error bound.
type Service struct {
	d   *daemon.Daemon
	f   *daemon.UTCFollower
	aud *audit.Auditor
	sch *sim.Scheduler

	host  string
	store Store
	clock *Clock // TSC-timebase clock for in-sim reads

	epoch uint64
	// publishes/degraded are atomic because the /healthz handler reads
	// them from HTTP goroutines while the publish tick writes them.
	publishes atomic.Uint64
	degraded  atomic.Uint64

	// attr is the ε-budget split of every published half-width,
	// recorded unconditionally (cheap: eight atomic stores per 10 ms
	// publish tick) so Attribution() works even without a Registry.
	attr attrState

	event   sim.Event
	stopped bool

	tr         *telemetry.Tracer
	mPublishes *telemetry.Counter
	mDegraded  [len(degradedReasons)]*telemetry.Counter
	mBound     *telemetry.Gauge
	mEpsLast   [numAttrComponents]*telemetry.Gauge
	hEps       [numAttrComponents]*telemetry.Histogram
}

// NewService wires a host's daemon, UTC follower, and the network
// auditor into a time service and schedules its periodic publish tick.
// The auditor supplies the live cross-host bound (every auditor audits
// every device). reg and tr may be nil.
func NewService(d *daemon.Daemon, f *daemon.UTCFollower, aud *audit.Auditor, reg *telemetry.Registry, tr *telemetry.Tracer) *Service {
	s := &Service{
		d: d, f: f, aud: aud,
		sch:  d.Device().Clock().Scheduler(),
		host: d.Device().Name(),
		tr:   tr,
	}
	s.clock = NewClock(&s.store, tscTimebase{C: d.TSC()})
	s.mPublishes = reg.Counter("dtp_timesvc_publishes_total",
		"Clock snapshots published by the time service.", "host", s.host)
	for i, reason := range degradedReasons {
		s.mDegraded[i] = reg.Counter("dtp_timesvc_degraded_total",
			"Publish ticks skipped because no honest error bound was available.",
			"host", s.host, "reason", reason)
	}
	s.mBound = reg.Gauge("dtp_timesvc_bound_ps",
		"Uncertainty half-width of the last published snapshot, in picoseconds.",
		"host", s.host)
	for i, comp := range attrComponentNames {
		s.mEpsLast[i] = reg.Gauge("dtp_timesvc_eps_last_ps",
			"Last published half-width component, in picoseconds.",
			"host", s.host, "component", comp)
		// 30 power-of-two buckets from 1 ns span 1 ns .. ~0.5 ms.
		s.hEps[i] = reg.Histogram("dtp_timesvc_eps_ps",
			"Published half-width components, in picoseconds.",
			telemetry.ExponentialBuckets(1000, 2, 30), "host", s.host, "component", comp)
	}
	s.event = s.sch.After(publishInterval, s.tick)
	return s
}

// Stop cancels publishing; the last snapshot keeps serving until it
// ages out.
func (s *Service) Stop() {
	s.stopped = true
	s.event.Cancel()
}

// Store returns the snapshot store, e.g. to build a Clock on a
// different timebase (the load generator's wall clock).
func (s *Service) Store() *Store { return &s.store }

// Clock returns the in-sim reader: a Clock on this host's TSC
// timebase. Only usable on the simulation goroutine.
func (s *Service) Clock() *Clock { return s.clock }

// Publishes returns how many snapshots have been published. Safe from
// any goroutine.
func (s *Service) Publishes() uint64 { return s.publishes.Load() }

// DegradedTicks returns how many publish ticks found no honest bound.
// Safe from any goroutine.
func (s *Service) DegradedTicks() uint64 { return s.degraded.Load() }

func (s *Service) tick() {
	if s.stopped {
		return
	}
	s.publish()
	s.event = s.sch.After(publishInterval, s.tick)
}

// publish composes and publishes one snapshot, or counts why it could
// not.
func (s *Service) publish() {
	if !s.d.Calibrated() {
		s.degrade(degradedNoCalibration)
		return
	}
	utc, err := s.f.UTC()
	if err != nil {
		s.degrade(degradedNoBroadcast)
		return
	}
	if s.f.RatioUpdates() < warmupPairs {
		s.degrade(degradedWarmup)
		return
	}
	boundUnits := s.aud.LiveBoundUnits(s.host)
	if boundUnits < 0 {
		s.degrade(degradedNoBound)
		return
	}

	// Counter-domain error, split per source and converted to UTC ps so
	// the budget is attributable: the audited cross-host hardware
	// disagreement (4TD) plus the fixed software margin, this daemon's
	// self-reported estimate error (adaptive — a PCIe contention spike
	// widens it for one calibration interval), the broadcaster's
	// self-reported error shipped inside the anchor pair (NTP
	// root-dispersion style), and the follower's realized one-interval
	// prediction residual with tail factor and cold-start floor.
	ratio := s.f.Ratio()
	var comps [numAttrComponents]float64
	comps[attrAudit] = float64(boundUnits+softwareMarginUnits) * ratio
	comps[attrDaemon] = s.d.EstimateErrorUnits() * ratio
	comps[attrBcast] = s.f.AnchorErrUnits() * ratio
	comps[attrResid] = residualFloorPs
	if r := residualFactor * s.f.ResidualPs(); r > comps[attrResid] {
		comps[attrResid] = r
	}
	eps := comps[attrAudit] + comps[attrDaemon] + comps[attrBcast] + comps[attrResid]
	s.attr.record(&comps)

	s.epoch++
	s.store.Publish(Snapshot{
		Epoch:     s.epoch,
		AnchorRaw: int64(s.d.TSC().Now()),
		AnchorUTC: utc,
		// UTC ps per TSC ps: daemon units-per-TSC-ps × follower
		// UTC-ps-per-unit.
		Ratio:    s.d.Ratio() * s.f.Ratio(),
		BoundPs:  eps,
		DriftPPM: driftPPM,
		MaxAgePs: int64(MaxAge),
	})
	s.publishes.Add(1)
	s.mPublishes.Inc()
	s.mBound.Set(eps)
	for i, v := range comps {
		s.mEpsLast[i].Set(v)
		s.hEps[i].Observe(v)
	}
	if s.tr.Enabled(telemetry.KindTimesvcPublish) {
		s.tr.Record(s.sch.Now(), telemetry.KindTimesvcPublish, s.host,
			int64(eps), int64(s.epoch), "")
	}
}

func (s *Service) degrade(reason int) {
	s.degraded.Add(1)
	s.mDegraded[reason].Inc()
	if s.tr.Enabled(telemetry.KindTimesvcDegraded) {
		s.tr.Record(s.sch.Now(), telemetry.KindTimesvcDegraded, s.host,
			int64(reason), 0, degradedReasons[reason])
	}
}

// ReadCheck samples the in-sim clock at the current simulated instant
// and verifies the interval against ground truth (simulated time is
// true UTC — the TrueUTC broadcast source serves exactly it). Returns
// the interval width, whether truth fell inside, and any read error.
// Only usable on the simulation goroutine.
func (s *Service) ReadCheck() (widthPs float64, covered bool, err error) {
	_, iv, err := s.clock.At(int64(s.d.TSC().Now()))
	if err != nil {
		return 0, false, err
	}
	return iv.WidthPs(), iv.Contains(float64(s.sch.Now())), nil
}
