package timesvc

import (
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Load drives Poisson read traffic against one host's Service from
// inside the simulation: each arrival performs a full interval read and
// checks it against ground truth, so a run reports the width and
// coverage distribution clients would actually observe — including
// reads that land mid-degradation and fail closed.
type Load struct {
	svc *Service
	sch *sim.Scheduler
	rng *sim.RNG
	qps float64 // mean Poisson arrival rate of reads against this host

	// OnError, when set, is invoked (on the simulation goroutine) for
	// every read that fails closed. The flight recorder hooks it to
	// treat a stale read as a dump trigger.
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

// NewLoad attaches a request-load model of qps > 0 mean Poisson reads
// per second to a service and schedules the first arrival. In-sim load
// models the request *pattern* (inter-arrival mixing with calibration
// ticks, width as seen by clients); raw throughput is the benchmark's
// serve_reads workload. The RNG should be forked per host (e.g.
// NewRNG(seed, "timesvc-load/"+host)) so runs stay deterministic under
// topology changes. reg may be nil.
func NewLoad(svc *Service, rng *sim.RNG, qps float64, reg *telemetry.Registry) *Load {
	l := &Load{svc: svc, sch: svc.sch, rng: rng, qps: qps}
	host := svc.host
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
	l.next()
	return l
}

// Stop halts the arrival process.
func (l *Load) Stop() { l.stopped = true }

// evArrive is Load's actor opcode. The scheduler files actor events in
// lane opcode&7; core.Port uses 0–5 and 7 and the auditor and telemetry
// flush 0, so Poisson arrivals get a lane of their own.
const evArrive uint8 = 6

func (l *Load) next() {
	mean := sim.Time(1e12 / l.qps) // ps between arrivals
	l.sch.AfterActor(l.rng.ExpTime(mean), l, evArrive, 0, 0)
}

// OnEvent implements sim.Actor: one Poisson arrival. A pooled actor
// event, unlike a method-value closure, costs the read no allocation.
func (l *Load) OnEvent(uint8, uint64, uint64) {
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

// Errors returns reads that failed closed (errNoSnapshot / ErrStale).
func (l *Load) Errors() uint64 { return l.errors }

// Covered returns successful reads whose interval contained true time.
func (l *Load) Covered() uint64 { return l.covered }
