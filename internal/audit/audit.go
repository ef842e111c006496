// Package audit verifies the paper's central claim while the simulation
// is still running: pairwise device offsets never exceed 4TD (§3.3).
//
// The Auditor snapshots every device's global counter at a configurable
// simulated cadence, derives each pair's live precision bound from BFS
// hop distances over the currently synchronized links (so the bound
// tightens and relaxes as links flap, and mixed-speed hops are charged
// their own 4-cycle share), and checks every reachable pair. A
// violation increments registry counters and emits a first-class
// KindBoundViolation trace event whose detail carries causal context:
// the last trace events touching either offending device, so an offline
// reader (cmd/dtptrace) can attribute the error to the protocol events
// that caused it.
//
// The package also houses the offline trace analyzer behind
// cmd/dtptrace (see analyze.go): state-machine dwell times, OWD and
// offset distributions, and counter-jump causality chains.
package audit

import (
	"fmt"
	"math"
	"strings"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Config tunes the online auditor. The zero value selects defaults.
// Every device pair is audited against its hardware bound: the serving
// plane adds its software margin itself (timesvc), so the auditor needs
// none.
type Config struct {
	// Interval is the snapshot cadence in simulated time (default 100 µs).
	Interval sim.Time
}

const (
	// defaultInterval is the snapshot cadence a zero Config.Interval
	// selects.
	defaultInterval = 100 * sim.Microsecond

	// maxViolationEvents caps how many violation trace events (each of
	// which snapshots causal context from the tracer ring) are emitted
	// per check; counters still count every violation.
	maxViolationEvents = 4

	// causalDepth is how many trace events of context a violation
	// carries.
	causalDepth = 8

	// graceChecks is how many checks are skipped after the set of
	// synchronized links changes. A freshly (re)joined subnet announces
	// its counter via BEACON-JOIN only core's joinDelayTicks after INIT
	// completes, so the instant a link reports synced its two sides may
	// legitimately still be far apart.
	graceChecks = 2

	// maxPairSeries caps per-pair worst-offset gauges registered with
	// the telemetry registry; larger networks keep per-pair worsts
	// internally but export only aggregates.
	maxPairSeries = 256
)

// Violation is one observed breach of the precision bound.
type Violation struct {
	At                      sim.Time
	A, B                    string // device names, topology order
	Hops                    int
	OffsetUnits, BoundUnits int64
	// Context holds the last trace events touching either device at the
	// time of the violation — the causal chain that led here.
	Context []telemetry.Event
}

// Auditor continuously verifies the 4TD bound over a core.Network. All
// work happens in scheduler events on the simulation goroutine; the
// telemetry it publishes may be scraped concurrently.
type Auditor struct {
	net *core.Network
	sch *sim.Scheduler
	cfg Config

	weights []int64 // per-link bound contribution, units
	active  []bool  // link-synced bitmap as of the last check
	hops    [][]int
	bounds  [][]int64

	// Per-pair state, dense: the pair of node IDs i < j lives in row i
	// of the strict upper triangle, row-major, so one sweep walks each
	// slice front to back.
	// pairBound is rebuilt when the synced link set changes; pairWorst
	// and pairGauges (nil without a registry) persist.
	pairBound  []int64 // bound, or unreachable
	pairWorst  []int64
	pairGauges []*telemetry.Gauge

	grace         int
	converged     bool
	everConverged bool
	badSince      sim.Time
	timeToSync    sim.Time
	reconv        []sim.Time

	// windows holds the declared expected-degradation intervals
	// (fault-injection campaigns): violations inside any window are
	// counted separately as excused and do not fail the audit.
	windows []degradeWindow
	excused uint64

	checks     uint64
	pairChecks uint64
	violations uint64
	worst      int64
	minSlack   int64
	lastViol   *Violation

	tr       *telemetry.Tracer
	mChecks  *telemetry.Counter
	mPairs   *telemetry.Counter
	mViol    *telemetry.Counter
	mExcused *telemetry.Counter
	mWorst   *telemetry.Gauge
	mSlack   *telemetry.Gauge
	mTTS     *telemetry.Gauge
	mReconv  *telemetry.Histogram

	counters []uint64 // snapshot scratch by node ID, reused across checks
	event    sim.Event
	stopped  bool
}

// New builds an auditor over the network and schedules its periodic
// check; it is quiet until the first link synchronizes. reg and tr may
// be nil; all handles are nil-safe. Per-pair worst-offset gauges are
// registered only when the pair count fits maxPairSeries.
func New(n *core.Network, cfg Config, reg *telemetry.Registry, tr *telemetry.Tracer) *Auditor {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	a := &Auditor{
		net:        n,
		sch:        n.Sch,
		cfg:        cfg,
		active:     make([]bool, len(n.Graph.Links)),
		weights:    make([]int64, len(n.Graph.Links)),
		counters:   make([]uint64, len(n.Graph.Nodes)),
		timeToSync: -1,
		minSlack:   math.MaxInt64,
	}
	for i := range n.Graph.Links {
		a.weights[i] = n.LinkBoundUnits(i)
	}
	np := a.numPairs()
	a.pairBound = make([]int64, np)
	a.pairWorst = make([]int64, np)
	a.instrument(reg, tr)
	a.reschedule()
	return a
}

// unreachable marks a pair with no synced path in pairBound.
const unreachable = math.MinInt64

func (a *Auditor) numPairs() int { return len(a.counters) * (len(a.counters) - 1) / 2 }

func (a *Auditor) instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	a.tr = tr
	a.mChecks = reg.Counter("dtp_audit_checks_total",
		"Auditor snapshot rounds performed.")
	a.mPairs = reg.Counter("dtp_audit_pairs_checked_total",
		"Device pairs checked against their live 4TD bound.")
	a.mViol = reg.Counter("dtp_audit_violations_total",
		"Pairs observed outside their 4TD precision bound.")
	a.mExcused = reg.Counter("dtp_audit_violations_excused_total",
		"Bound breaches inside a declared expected-degradation window (fault injection).")
	a.mWorst = reg.Gauge("dtp_audit_worst_offset_units",
		"Largest |pairwise offset| the auditor has observed, in counter units.")
	a.mSlack = reg.Gauge("dtp_audit_min_slack_units",
		"Smallest (bound - |offset|) headroom observed, in counter units.")
	a.mSlack.Set(math.Inf(1))
	a.mTTS = reg.Gauge("dtp_audit_time_to_sync_seconds",
		"Simulated time at which the network first converged within bound.")
	a.mTTS.Set(-1)
	a.mReconv = reg.Histogram("dtp_audit_reconvergence_seconds",
		"Durations from a disruption (link flap, violation) back to a fully in-bound network.",
		telemetry.ExponentialBuckets(1e-6, 4, 12))
	if reg != nil && a.numPairs() <= maxPairSeries {
		n := len(a.counters)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a.pairGauges = append(a.pairGauges, reg.Gauge("dtp_audit_pair_worst_offset_units",
					"Largest |offset| observed for this device pair, in counter units.",
					"pair", a.pairName(i, j)))
			}
		}
	}
}

func (a *Auditor) pairName(i, j int) string {
	return a.net.Graph.Nodes[i].Name + "-" + a.net.Graph.Nodes[j].Name
}

// Stop cancels the periodic check.
func (a *Auditor) Stop() {
	a.stopped = true
	a.event.Cancel()
}

// degradeWindow is one declared interval during which bound breaches
// are expected (an injected fault is active, plus settle grace).
type degradeWindow struct {
	from, until sim.Time
	reason      string
}

// ExpectDegradation declares [from, until] as an expected-degradation
// window: a fault injector announces that the bound may legitimately
// not hold while its fault (plus settling time) is in effect. Breaches
// inside any declared window are tallied as excused instead of
// violations, so a chaos campaign can still assert zero *unexpected*
// violations. Windows are pruned once they expire.
func (a *Auditor) ExpectDegradation(from, until sim.Time, reason string) {
	a.windows = append(a.windows, degradeWindow{from: from, until: until, reason: reason})
}

// excusedAt reports whether t falls inside a declared window, pruning
// windows that ended before t (checks run in time order).
func (a *Auditor) excusedAt(t sim.Time) bool {
	live := a.windows[:0]
	for _, w := range a.windows {
		if w.until >= t {
			live = append(live, w)
		}
	}
	a.windows = live
	for _, w := range a.windows {
		if w.from <= t && t <= w.until {
			return true
		}
	}
	return false
}

// noteDisruption marks the start of a not-converged spell.
func (a *Auditor) noteDisruption(now sim.Time) {
	if a.converged {
		a.converged = false
		a.badSince = now
	}
}

func (a *Auditor) check() {
	if a.stopped {
		return
	}
	now := a.sch.Now()
	a.checks++
	a.mChecks.Inc()

	changed := a.hops == nil
	for i := range a.active {
		s := a.net.LinkSynced(i)
		if s != a.active[i] {
			a.active[i] = s
			changed = true
		}
	}
	if changed {
		a.hops, a.bounds = a.net.Graph.HopsWith(a.active, a.weights)
		a.rebuildPairBounds()
		a.grace = graceChecks
		a.noteDisruption(now)
	}
	if a.grace > 0 {
		a.grace--
		a.reschedule()
		return
	}

	for i, d := range a.net.Devices {
		a.counters[i] = d.GlobalCounterAt(now)
	}
	clean, connected, pairs := a.sweep(now, a.excusedAt(now))
	a.pairChecks += pairs
	a.mPairs.Add(pairs)

	if clean && connected && pairs > 0 {
		if !a.converged {
			a.converged = true
			if !a.everConverged {
				a.everConverged = true
				a.timeToSync = now
				a.mTTS.Set(now.Seconds())
			} else {
				dur := now - a.badSince
				a.reconv = append(a.reconv, dur)
				a.mReconv.Observe(dur.Seconds())
			}
		}
	} else {
		a.noteDisruption(now)
	}
	a.reschedule()
}

// rebuildPairBounds refreshes pairBound from the BFS tables; it runs
// only when the synced link set changed.
func (a *Auditor) rebuildPairBounds() {
	k := 0
	for i, hops := range a.hops {
		for j := i + 1; j < len(hops); j++ {
			if hops[j] < 0 {
				a.pairBound[k] = unreachable
			} else {
				a.pairBound[k] = a.bounds[i][j]
			}
			k++
		}
	}
}

// sweep checks every reachable pair of the a.counters snapshot against
// its bound. A pair in bound costs three loads, a subtract and a few
// compares: the running worst and minimum slack stay in locals and
// reach the struct and its gauges through publish, before anything that
// can observe them (a violation's trace event may trip a flight-recorder
// dump) and when the sweep ends. No pair beats the global worst without
// beating its own, so that compare sits on the rare path.
func (a *Auditor) sweep(now sim.Time, excused bool) (clean, connected bool, pairs uint64) {
	clean, connected = true, true
	worst, minSlack := a.worst, a.minSlack
	eventsLeft := maxViolationEvents
	n := len(a.counters)
	k := 0
	for i := 0; i < n-1; i++ {
		ci := int64(a.counters[i])
		peers := a.counters[i+1:]
		bounds := a.pairBound[k : k+len(peers)]
		worsts := a.pairWorst[k : k+len(peers)]
		for y, bound := range bounds {
			if bound == unreachable {
				connected = false
				continue
			}
			pairs++
			off := ci - int64(peers[y])
			abs := off
			if abs < 0 {
				abs = -abs
			}
			if abs > worsts[y] {
				worsts[y] = abs
				if abs > worst {
					worst = abs
				}
				if a.pairGauges != nil {
					a.pairGauges[k+y].Set(float64(abs))
				}
			}
			if slack := bound - abs; slack < minSlack {
				minSlack = slack
			}
			if abs > bound {
				clean = false
				if excused {
					a.excused++
					a.mExcused.Inc()
				} else {
					a.publish(worst, minSlack)
					j := i + 1 + y
					a.recordViolation(now, i, j, a.hops[i][j], off, bound, eventsLeft > 0)
					if eventsLeft > 0 {
						eventsLeft--
					}
				}
			}
		}
		k += len(peers)
	}
	a.publish(worst, minSlack)
	return clean, connected, pairs
}

// publish stores the sweep's running worst offset and minimum slack.
func (a *Auditor) publish(worst, minSlack int64) {
	if worst != a.worst {
		a.worst = worst
		a.mWorst.Set(float64(worst))
	}
	if minSlack != a.minSlack {
		a.minSlack = minSlack
		a.mSlack.Set(float64(minSlack))
	}
}

// OnEvent makes Auditor a sim.Actor so the periodic check reschedules
// without allocating a method-value closure; the check is its only
// event, so the opcode is unused.
func (a *Auditor) OnEvent(uint8, uint64, uint64) { a.check() }

func (a *Auditor) reschedule() {
	if !a.stopped {
		a.event = a.sch.AfterActor(a.cfg.Interval, a, 0, 0, 0)
	}
}

// recordViolation counts a bound breach and, when emit is set, captures
// causal context and publishes a KindBoundViolation trace event.
func (a *Auditor) recordViolation(at sim.Time, i, j, hops int, off, bound int64, emit bool) {
	a.violations++
	a.mViol.Inc()
	if !emit {
		return
	}
	an := a.net.Graph.Nodes[i].Name
	bn := a.net.Graph.Nodes[j].Name
	ctx := a.causalContext(an, bn)
	a.lastViol = &Violation{
		At: at, A: an, B: bn, Hops: hops,
		OffsetUnits: off, BoundUnits: bound, Context: ctx,
	}
	if a.tr.Enabled(telemetry.KindBoundViolation) {
		a.tr.Record(at, telemetry.KindBoundViolation, an+"~"+bn, off, bound,
			violationDetail(hops, ctx))
	}
}

// causalContext returns the last causalDepth retained trace events that
// touch either device (by device name or any of its ports), oldest
// first. Violation events themselves are excluded so repeated breaches
// do not bury the protocol events that caused the first one.
func (a *Auditor) causalContext(an, bn string) []telemetry.Event {
	if a.tr == nil {
		return nil
	}
	events := a.tr.Events()
	var ctx []telemetry.Event
	for k := len(events) - 1; k >= 0 && len(ctx) < causalDepth; k-- {
		e := events[k]
		if e.Kind == telemetry.KindBoundViolation {
			continue
		}
		if touches(e.Who, an) || touches(e.Who, bn) {
			ctx = append(ctx, e)
		}
	}
	// Reverse into chronological order.
	for l, r := 0, len(ctx)-1; l < r; l, r = l+1, r-1 {
		ctx[l], ctx[r] = ctx[r], ctx[l]
	}
	return ctx
}

// touches reports whether the event's Who ("s1" or "s1[2]") belongs to
// the named device.
func touches(who, dev string) bool {
	return who == dev || (strings.HasPrefix(who, dev) && len(who) > len(dev) && who[len(dev)] == '[')
}

// violationDetail renders the hop distance and causal context into a
// compact single-line string for the trace event.
func violationDetail(hops int, ctx []telemetry.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hops=%d", hops)
	if len(ctx) > 0 {
		b.WriteString(" ctx=[")
		for k, e := range ctx {
			if k > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%s %s v1=%d v2=%d @%v", e.Kind, e.Who, e.V1, e.V2, e.At)
		}
		b.WriteString("]")
	}
	return b.String()
}

// --- Accessors ---------------------------------------------------------

// Checks returns how many snapshot rounds ran.
func (a *Auditor) Checks() uint64 { return a.checks }

// PairChecks returns how many pair-bound comparisons ran.
func (a *Auditor) PairChecks() uint64 { return a.pairChecks }

// Violations returns how many pair checks breached their bound outside
// any declared expected-degradation window.
func (a *Auditor) Violations() uint64 { return a.violations }

// ExcusedViolations returns how many breaches fell inside declared
// expected-degradation windows.
func (a *Auditor) ExcusedViolations() uint64 { return a.excused }

// WorstOffsetUnits returns the largest |offset| observed, in units.
func (a *Auditor) WorstOffsetUnits() int64 { return a.worst }

// MinSlackUnits returns the smallest (bound - |offset|) headroom
// observed (math.MaxInt64 before any pair was checked).
func (a *Auditor) MinSlackUnits() int64 { return a.minSlack }

// TimeToSync returns when the network first converged fully in-bound
// (-1 if it never has).
func (a *Auditor) TimeToSync() sim.Time { return a.timeToSync }

// Reconvergences returns the duration of every completed disruption
// spell after the first convergence — e.g. recovery from a link flap.
func (a *Auditor) Reconvergences() []sim.Time { return a.reconv }

// Converged reports whether the last completed check found every pair
// reachable and in bound.
func (a *Auditor) Converged() bool { return a.converged }

// LastViolation returns the most recent emitted violation (nil if none).
func (a *Auditor) LastViolation() *Violation { return a.lastViol }

// LiveBoundUnits returns the current worst-case 4TD precision bound
// between the named device and any other device, in counter units — the
// half-width a time-serving API must cover for cross-host counter
// disagreement. It reflects the link-synced set as of the auditor's last
// check, so it tightens and relaxes as links flap. Returns -1 when the
// device is unknown, no check has run yet, or the device cannot
// currently reach every peer (a partitioned host has no honest bound to
// serve).
func (a *Auditor) LiveBoundUnits(device string) int64 {
	if a.hops == nil {
		return -1
	}
	node, ok := a.net.Graph.ByName(device)
	if !ok {
		return -1
	}
	id := node.ID
	worst := int64(-1)
	for j, hops := range a.hops[id] {
		if j == id {
			continue
		}
		if hops < 0 {
			return -1
		}
		if b := a.bounds[id][j]; b > worst {
			worst = b
		}
	}
	return worst
}

// Summary renders a one-line report.
func (a *Auditor) Summary() string {
	tts := "never"
	if a.timeToSync >= 0 {
		tts = a.timeToSync.String()
	}
	slack := ""
	if a.minSlack != math.MaxInt64 {
		slack = fmt.Sprintf(" min-slack %d", a.minSlack)
	}
	excused := ""
	if a.excused > 0 {
		excused = fmt.Sprintf(" (+%d excused)", a.excused)
	}
	return fmt.Sprintf("audit: %d checks, %d pair checks, %d violations%s, worst |offset| %d units%s, first sync %s, %d reconvergences",
		a.checks, a.pairChecks, a.violations, excused, a.worst, slack, tts, len(a.reconv))
}
