package core

import (
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// telemetryFlushInterval is how often the beacon-rate counts are folded
// into the atomic Registry metrics. Readers (HTTP scrapes, exports) lag
// live by at most this much simulated time.
const telemetryFlushInterval = sim.Millisecond

// coreMetrics holds the network's telemetry handles. The zero value
// (all nil) is fully functional: every handle method is a no-op on nil,
// so instrumented hot paths cost one predicted nil check when telemetry
// is disabled. Counters aggregate across ports — per-port granularity
// comes from the Tracer, whose events carry port names.
//
// Events at beacon frequency (tx, rx, ignored, dropped-down, jumps,
// offset samples) do not touch atomics at all: the whole simulation
// runs on one scheduler goroutine, so a periodic flush event folds
// plain counts into the shared metrics. Beacons are counted once, in
// the Port's own counters, which the flush sums; jumps have no port
// counter (a JOIN adopted in finishInit jumps with no port's beacon),
// so they keep a shadow field here. Rare events (state transitions,
// INIT rounds, faults) update their atomic counters directly.
type coreMetrics struct {
	tr *telemetry.Tracer

	beaconsSent    *telemetry.Counter
	beaconsRx      *telemetry.Counter
	beaconsIgnored *telemetry.Counter
	initRounds     *telemetry.Counter
	transitions    *telemetry.Counter
	jumps          *telemetry.Counter
	stalls         *telemetry.Counter
	violations     *telemetry.Counter
	faultyPorts    *telemetry.Counter
	demotions      *telemetry.Counter
	droppedDown    *telemetry.Counter
	crashes        *telemetry.Counter
	rejections     *telemetry.Counter
	quarantines    *telemetry.Counter
	portsUp        *telemetry.Gauge
	quarantinedG   *telemetry.Gauge
	offsets        *telemetry.Histogram
	owd            *telemetry.Histogram

	// Owned by the scheduler goroutine: jumps since the last flush, and
	// the port-counter sums the flush has already added.
	jumpsN                                              uint64
	flushedSent, flushedRx, flushedIgnored, flushedDown uint64
	offBatch                                            *telemetry.HistogramBatch
}

// WithTelemetry instruments the network with a metrics registry and/or
// event tracer; either may be nil. Metric handles are registered once
// at construction; beacon-rate paths then increment plain counters
// that a periodic event flushes into the registry, which the overhead
// benchmark in internal/telemetry holds to < 5%.
func WithTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) Option {
	return func(o *networkOptions) { o.reg, o.tr = reg, tr }
}

// instrument registers the telemetry handles and arms the flush.
func (n *Network) instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	n.tel = coreMetrics{
		tr: tr,
		beaconsSent: reg.Counter("dtp_beacons_sent_total",
			"BEACON messages transmitted, including MSB carriers."),
		beaconsRx: reg.Counter("dtp_beacons_received_total",
			"BEACON messages processed by synced ports."),
		beaconsIgnored: reg.Counter("dtp_beacons_ignored_total",
			"Beacons rejected by the bit-error guard or a faulty-marked port."),
		initRounds: reg.Counter("dtp_init_rounds_total",
			"INIT delay-measurement rounds started (Algorithm 1 T0/retry)."),
		transitions: reg.Counter("dtp_port_state_transitions_total",
			"Port state transitions (down/init/synced, and quarantined in hardened mode)."),
		jumps: reg.Counter("dtp_counter_jumps_total",
			"Forward global-counter adjustments (T4 max rule and JOINs)."),
		stalls: reg.Counter("dtp_counter_stalls_total",
			"Follower-mode stalls absorbing surplus oscillator ticks (§5.4)."),
		violations: reg.Counter("dtp_guard_violations_total",
			"Guard violations counted toward faulty-peer detection (§3.2)."),
		faultyPorts: reg.Counter("dtp_faulty_ports_total",
			"Ports that declared their peer faulty and stopped synchronizing."),
		demotions: reg.Counter("dtp_port_demotions_total",
			"Ports demoted back to INIT by the beacon-loss watchdog or an expired quarantine cooldown."),
		droppedDown: reg.Counter("dtp_port_dropped_down",
			"Blocks that arrived on a down port and were discarded."),
		crashes: reg.Counter("dtp_device_crashes_total",
			"Devices crashed (power loss: all ports down, counter content lost)."),
		rejections: reg.Counter("dtp_core_counter_rejected_total",
			"Remote counter advances refused by hardened bounded-jump admission."),
		quarantines: reg.Counter("dtp_core_port_quarantines_total",
			"Ports that quarantined their peer after repeated admission rejections."),
		portsUp: reg.Gauge("dtp_ports_up",
			"Ports currently up (in INIT or SYNC state)."),
		quarantinedG: reg.Gauge("dtp_core_ports_quarantined",
			"Ports currently in hardened-mode quarantine (excluded from the audited active set)."),
		offsets: reg.Histogram("dtp_beacon_offset_ticks",
			"Per-beacon hardware offset samples t2-t1-OWD in counter units (§6.2).",
			telemetry.LinearBuckets(-8, 1, 17)),
		owd: reg.Histogram("dtp_owd_units",
			"One-way delays measured during INIT, in counter units.",
			telemetry.ExponentialBuckets(1, 2, 16)),
	}
	n.tel.offBatch = n.tel.offsets.Batch()
	if reg != nil && tr != nil {
		reg.CounterFunc("dtp_trace_dropped_total",
			"Trace events the ring buffer has evicted; a reader of the retained trace must not mistake it for a complete history.",
			tr.Dropped)
	}
	for _, lp := range n.linkPorts {
		lp[0].tname = lp[0].Name()
		lp[1].tname = lp[1].Name()
	}
	if reg != nil {
		n.Sch.AfterActor(telemetryFlushInterval, n, 0, 0, 0)
	}
}

// OnEvent makes Network a sim.Actor so the periodic telemetry flush
// reschedules itself without a per-flush method-value allocation. The
// flush is the network's only actor event; the opcode is unused.
func (n *Network) OnEvent(uint8, uint64, uint64) { n.telemetryFlush() }

// telemetryFlush folds the beacon-rate counts into the atomic Registry
// metrics and reschedules itself. It runs on the scheduler goroutine,
// the sole writer of the port counters and the fields it reads.
func (n *Network) telemetryFlush() {
	n.settle()
	t := &n.tel
	var sent, rx, ignored, down uint64
	for _, lp := range n.linkPorts {
		for _, p := range lp {
			sent += p.beaconsSent
			rx += p.beaconsReceived
			ignored += p.beaconsIgnored
			down += p.droppedDown
		}
	}
	addSince(t.beaconsSent, sent, &t.flushedSent)
	addSince(t.beaconsRx, rx, &t.flushedRx)
	addSince(t.beaconsIgnored, ignored, &t.flushedIgnored)
	addSince(t.droppedDown, down, &t.flushedDown)
	if t.jumpsN != 0 {
		t.jumps.Add(t.jumpsN)
		t.jumpsN = 0
	}
	t.offBatch.Flush()
	n.Sch.AfterActor(telemetryFlushInterval, n, 0, 0, 0)
}

// addSince adds to c what the running total gained since the last
// flush recorded in *flushed.
func addSince(c *telemetry.Counter, total uint64, flushed *uint64) {
	if total != *flushed {
		c.Add(total - *flushed)
		*flushed = total
	}
}

// setState moves the port's Algorithm 1 state machine, counting and
// tracing the transition.
func (p *Port) setState(s portState) {
	if s == p.state {
		return
	}
	old := p.state
	p.state = s
	tel := &p.dev.net.tel
	tel.transitions.Inc()
	if old == portQuarantined {
		tel.quarantinedG.Add(-1)
	} else if s == portQuarantined {
		tel.quarantinedG.Add(1)
	}
	if tel.tr.Enabled(telemetry.KindStateChange) {
		tel.tr.Record(p.sch().Now(), telemetry.KindStateChange, p.tname,
			int64(old), int64(s), s.String())
	}
}
