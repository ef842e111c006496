package telemetry

import (
	"sync"
	"sync/atomic"

	"github.com/dtplab/dtp/internal/sim"
)

// Kind identifies a typed protocol event.
type Kind uint8

const (
	// KindLinkUp / KindLinkDown: a port was brought up or torn down.
	KindLinkUp Kind = iota
	KindLinkDown
	// KindStateChange: a port's Algorithm 1 state machine moved;
	// V1/V2 are the old/new state codes, Detail the new state name.
	KindStateChange
	// KindInitRound: a port started one INIT delay-measurement round.
	KindInitRound
	// KindSynced: a port finished INIT; V1 is the measured OWD in
	// counter units.
	KindSynced
	// KindBeaconTx: a BEACON left a port; V1 is the embedded counter.
	KindBeaconTx
	// KindBeaconRx: a BEACON was processed; V1 is the hardware offset
	// sample (t2 - t1 - OWD) in counter units.
	KindBeaconRx
	// KindBeaconIgnored: a beacon failed the guard (or the port is
	// faulty); V1 is the rejected offset.
	KindBeaconIgnored
	// KindCounterJump: the device counter jumped forward; V1 is the
	// jump distance in units, V2 is 1 for JOIN-driven jumps.
	KindCounterJump
	// KindCounterStall: a §5.4 follower stalled; V1 is the excess.
	KindCounterStall
	// KindFaultyPeer: a port declared its peer faulty.
	KindFaultyPeer
	// KindDaemonCal: a daemon calibration completed; V1 is the software
	// offset in milli-units (offset × 1000), V2 the calibration count.
	KindDaemonCal
	// KindBoundViolation: the online auditor (internal/audit) caught a
	// device pair outside its 4TD precision bound; Who is "a~b", V1 the
	// observed offset in units, V2 the violated bound, and Detail carries
	// the hop distance plus the last trace events touching either device
	// (the causal context).
	KindBoundViolation
	// KindPortDemoted: a SYNCED port demoted itself back to INIT; V1 is
	// the demotion reason code (0 = beacon-loss timeout, 1 = faulty-peer
	// cooldown expired), Detail the reason name.
	KindPortDemoted
	// KindChaosInject / KindChaosClear: the fault-injection engine
	// (internal/chaos) started or cleared a fault; Who is the target
	// (link "a-b" or device name), V1 the fault index in the scenario,
	// and Detail the fault kind plus its parameters.
	KindChaosInject
	KindChaosClear
	// KindDeviceCrash / KindDeviceRestart: a device lost power (ports on
	// both link ends go down, counter content lost) or powered back on
	// (counter restarts from zero, links re-enter through INIT).
	KindDeviceCrash
	KindDeviceRestart
	// KindTimesvcPublish: the time service (internal/timesvc) published
	// a fresh clock snapshot; Who is the host, V1 the interval
	// half-width in ps, V2 the snapshot epoch.
	KindTimesvcPublish
	// KindTimesvcDegraded: the time service skipped a publish because no
	// honest error bound was available (audit bound unknown, no UTC
	// broadcast yet, or daemon uncalibrated); V1 is a reason code,
	// Detail the reason name. Readers age out at the snapshot MaxAge and
	// then fail closed (stale) instead of serving unbounded time.
	KindTimesvcDegraded
	// KindCounterRejected: hardened mode's bounded-jump admission
	// refused a remote counter advance on a synced session; Who is the
	// receiving port, V1 the proposed advance in units, V2 the allowance
	// it exceeded, and Detail "beacon" or "join".
	KindCounterRejected
	// KindPortQuarantined: repeated admission rejections pushed a port
	// into quarantine — it stops synchronizing to its peer and its link
	// leaves the audited active set until the cooldown re-INIT; V1 is
	// the rejection count that tripped it, V2 the session OWD in units.
	KindPortQuarantined

	numKinds
)

var kindNames = [numKinds]string{
	"link_up", "link_down", "state_change", "init_round", "synced",
	"beacon_tx", "beacon_rx", "beacon_ignored", "counter_jump",
	"counter_stall", "faulty_peer", "daemon_cal", "bound_violation",
	"port_demoted", "chaos_inject", "chaos_clear",
	"device_crash", "device_restart",
	"timesvc_publish", "timesvc_degraded",
	"counter_rejected", "port_quarantined",
}

// String returns the stable snake_case name used in JSONL dumps.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString maps a stable snake_case name (as emitted in JSONL
// dumps) back to its Kind.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one recorded protocol event. Who is the emitting port or
// device ("s1[2]", "s4"); V1/V2 are kind-specific numeric fields (see
// the Kind constants); Detail is an optional short string.
type Event struct {
	Seq    uint64
	At     sim.Time
	Kind   Kind
	Who    string
	V1, V2 int64
	Detail string
}

// Tracer records events into a bounded ring buffer. A nil Tracer is a
// valid no-op. Record first checks an atomic kind mask, so disabled
// kinds cost one load; enabled kinds take a short mutex (the simulation
// is single-goroutine, but HTTP exporters snapshot concurrently).
type Tracer struct {
	mask atomic.Uint32 // bit i set => Kind(i) recorded

	// obs, when set, is invoked with each recorded event after the ring
	// mutex is released — so an observer may call Events()/Dropped()
	// without deadlocking. The flight recorder arms this to turn
	// specific kinds into dump triggers.
	obs atomic.Pointer[func(Event)]

	mu    sync.Mutex
	buf   []Event
	next  int
	count int    // valid entries in buf
	total uint64 // events ever recorded (drops = total - count)
}

// firehoseKinds are the kinds that fire at beacon frequency — millions
// per simulated second (in steady state roughly every other beacon
// causes a small forward counter jump, so jumps are firehose too). They
// are masked by default so an instrumented run keeps the Registry's <5%
// overhead budget; enable them explicitly with SetKinds() (no
// arguments) when the full frame-level trace is worth the cost.
const firehoseKinds = 1<<KindBeaconTx | 1<<KindBeaconRx | 1<<KindBeaconIgnored | 1<<KindCounterJump

// NewTracer returns a tracer keeping the last capacity events
// (default 8192 when capacity <= 0). Every kind starts enabled except
// the per-beacon firehose kinds (beacon_tx, beacon_rx, beacon_ignored);
// call SetKinds() with no arguments to record those too.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 8192
	}
	t := &Tracer{buf: make([]Event, capacity)}
	t.mask.Store((1<<numKinds - 1) &^ firehoseKinds)
	return t
}

// SetKinds restricts recording to the listed kinds; with no arguments
// every kind is enabled, including the firehose kinds that NewTracer
// masks by default.
func (t *Tracer) SetKinds(kinds ...Kind) {
	if t == nil {
		return
	}
	if len(kinds) == 0 {
		t.mask.Store(1<<numKinds - 1)
		return
	}
	var m uint32
	for _, k := range kinds {
		m |= 1 << k
	}
	t.mask.Store(m)
}

// Enabled reports whether events of kind k are being recorded. False on
// a nil Tracer — instrumentation can skip building Detail strings.
func (t *Tracer) Enabled(k Kind) bool {
	return t != nil && t.mask.Load()&(1<<k) != 0
}

// Record appends an event (no-op when nil or the kind is masked).
func (t *Tracer) Record(at sim.Time, k Kind, who string, v1, v2 int64, detail string) {
	if !t.Enabled(k) {
		return
	}
	t.mu.Lock()
	t.total++
	e := Event{Seq: t.total, At: at, Kind: k, Who: who, V1: v1, V2: v2, Detail: detail}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	if t.count < len(t.buf) {
		t.count++
	}
	t.mu.Unlock()
	if fn := t.obs.Load(); fn != nil {
		(*fn)(e)
	}
}

// OnRecord installs an observer called with every recorded event, after
// the ring mutex is released (so it may read the tracer back). One
// observer at a time; nil uninstalls. Install before recording starts
// or from the recording goroutine — the pointer swap is atomic, but an
// observer installed mid-run only sees subsequent events.
func (t *Tracer) OnRecord(fn func(Event)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.obs.Store(nil)
		return
	}
	t.obs.Store(&fn)
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.count)
	start := t.next - t.count
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many recorded events the ring has evicted — the
// gap a reader of Events() must not mistake for a complete history.
// Exported as dtp_trace_dropped_total and stamped into every JSONL
// export header.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.count)
}

// CountKind returns how many retained events have the given kind.
func (t *Tracer) CountKind(k Kind) int {
	n := 0
	for _, e := range t.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}
