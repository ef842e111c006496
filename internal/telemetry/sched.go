package telemetry

import "github.com/dtplab/dtp/internal/sim"

// schedSampleInterval is the simulated cadence of InstrumentScheduler's
// sampler.
const schedSampleInterval = sim.Millisecond

// InstrumentScheduler exports the event loop's own throughput through
// the registry: events processed, current and high-water queue depth, a
// queue-depth histogram sampled every schedSampleInterval of simulated
// time, the queue's own geometry (sim.QueueStats: FIFO-lane inserts,
// overflows to the heap, heap population). Every figure is
// deterministic per seed, so metric dumps stay byte-identical. The
// sampler runs as a scheduler event, so all reads happen on the
// simulation goroutine; concurrent HTTP scrapes only touch the atomic
// metric values.
func InstrumentScheduler(reg *Registry, sch *sim.Scheduler) {
	if reg == nil || sch == nil {
		return
	}
	processed := reg.Gauge("dtp_sched_events_processed_total",
		"Scheduler events dispatched since construction.")
	pending := reg.Gauge("dtp_sched_events_pending",
		"Scheduler events currently queued.")
	highWater := reg.Gauge("dtp_sched_events_pending_high_water",
		"Largest scheduler queue depth ever observed.")
	depth := reg.Histogram("dtp_sched_queue_depth",
		"Scheduler queue depth sampled every instrumentation interval.",
		ExponentialBuckets(1, 2, 16))
	laneInserts := reg.Gauge("dtp_sched_lane_inserts_total",
		"Actor events the scheduler filed in a FIFO lane.")
	laneOverflow := reg.Gauge("dtp_sched_lane_overflow_total",
		"Actor events a FIFO lane refused, filed in the scheduler's heap instead.")
	heapPending := reg.Gauge("dtp_sched_heap_pending",
		"Scheduler events currently resident in the heap (closures and lane overflows).")
	var sample func()
	sample = func() {
		p := sch.Processed()
		processed.Set(float64(p))
		pen := sch.Pending()
		pending.Set(float64(pen))
		highWater.Set(float64(sch.HighWaterPending()))
		depth.Observe(float64(pen))
		qs := sch.QueueStats()
		laneInserts.Set(float64(qs.LaneInserts))
		laneOverflow.Set(float64(qs.LaneOverflows))
		heapPending.Set(float64(qs.HeapPending))
		sch.After(schedSampleInterval, sample)
	}
	sch.After(schedSampleInterval, sample)
}
