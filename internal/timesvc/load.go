package timesvc

import (
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// LoadConfig shapes the in-sim request model.
type LoadConfig struct {
	// QPS is the mean Poisson arrival rate of time-service reads against
	// this host (default 1000). In-sim load models the request *pattern*
	// (inter-arrival mixing with calibration ticks, width as seen by
	// clients); raw throughput is the benchmark's serve_reads workload.
	QPS float64
}

// Load drives Poisson read traffic against one host's Service from
// inside the simulation: each arrival performs a full interval read and
// checks it against ground truth, so a run reports the width and
// coverage distribution clients would actually observe — including
// reads that land mid-degradation and fail closed.
type Load struct {
	svc *Service
	sch *sim.Scheduler
	rng *sim.RNG
	cfg LoadConfig

	// OnError, when set, is invoked (on the simulation goroutine) for
	// every read that fails closed. The flight recorder hooks it to
	// treat a stale read as a dump trigger. Set before Start.
	OnError func(error)

	reads    uint64
	errors   uint64
	covered  uint64
	widthSum float64

	stopped bool

	mReads   *telemetry.Counter
	mErrors  *telemetry.Counter
	mMissed  *telemetry.Counter
	hWidthNs *telemetry.Histogram
}

// NewLoad attaches a request-load model to a service. The RNG should be
// forked per host (e.g. NewRNG(seed, "timesvc-load/"+host)) so runs stay
// deterministic under topology changes.
func NewLoad(svc *Service, rng *sim.RNG, cfg LoadConfig) *Load {
	if cfg.QPS <= 0 {
		cfg.QPS = 1000
	}
	return &Load{svc: svc, sch: svc.sch, rng: rng, cfg: cfg}
}

// Instrument attaches telemetry (nil-safe).
func (l *Load) Instrument(reg *telemetry.Registry) {
	host := l.svc.Host()
	l.mReads = reg.Counter("dtp_timesvc_reads_total",
		"Simulated time-service reads served.", "host", host)
	l.mErrors = reg.Counter("dtp_timesvc_read_errors_total",
		"Simulated time-service reads that failed closed (no snapshot or stale).",
		"host", host)
	l.mMissed = reg.Counter("dtp_timesvc_uncovered_reads_total",
		"Simulated reads whose interval did NOT contain true time (bound violations).",
		"host", host)
	l.hWidthNs = reg.Histogram("dtp_timesvc_width_ns",
		"Interval width observed by simulated reads, in nanoseconds.",
		telemetry.ExponentialBuckets(1, 2, 16), "host", host)
}

// Start schedules the first arrival.
func (l *Load) Start() {
	l.stopped = false
	l.next()
}

// Stop halts the arrival process.
func (l *Load) Stop() { l.stopped = true }

func (l *Load) next() {
	mean := sim.Time(1e12 / l.cfg.QPS) // ps between arrivals
	l.sch.After(l.rng.ExpTime(mean), l.arrive)
}

func (l *Load) arrive() {
	if l.stopped {
		return
	}
	width, covered, err := l.svc.ReadCheck()
	l.reads++
	l.mReads.Inc()
	switch {
	case err != nil:
		l.errors++
		l.mErrors.Inc()
		if l.OnError != nil {
			l.OnError(err)
		}
	default:
		if covered {
			l.covered++
		} else {
			l.mMissed.Inc()
		}
		l.widthSum += width
		l.hWidthNs.Observe(width / 1000)
	}
	l.next()
}

// Reads returns the total simulated reads (including failed ones).
func (l *Load) Reads() uint64 { return l.reads }

// Errors returns reads that failed closed (ErrNoSnapshot / ErrStale).
func (l *Load) Errors() uint64 { return l.errors }

// Covered returns successful reads whose interval contained true time.
func (l *Load) Covered() uint64 { return l.covered }

// MeanWidthPs returns the mean interval width over successful reads.
func (l *Load) MeanWidthPs() float64 {
	n := l.reads - l.errors
	if n == 0 {
		return 0
	}
	return l.widthSum / float64(n)
}
