package core

import (
	"fmt"

	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// portState tracks where a port is in Algorithm 1.
type portState int

const (
	portDown        portState = iota
	portInit                  // INIT sent, waiting for INIT-ACK
	portSynced                // one-way delay measured, beacons flowing
	portQuarantined           // hardened mode: peer failed admission, cooling down
)

func (s portState) String() string {
	switch s {
	case portDown:
		return "down"
	case portInit:
		return "init"
	case portSynced:
		return "synced"
	case portQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("portState(%d)", int(s))
	}
}

// Port is one DTP-enabled network port. It owns the outbound wire toward
// its peer, the Algorithm 1 state machine, and per-port failure handling.
//
// The fields are split into a hot block and a cold block. The hot block
// packs everything the steady-state beacon chain (beacon timer → TX
// pipeline → wire → RX pipeline → CDC crossing → process) reads or
// writes, contiguous at the head of the struct so the chain works out
// of the first couple of cache lines; the cold block carries INIT
// bookkeeping, watchdog, hardened-mode, and diagnostic state that only
// rare transitions touch. Field promotion keeps every access site
// unchanged.
type Port struct {
	portHot
	portCold
}

// portHot is the per-beacon working set.
type portHot struct {
	dev  *Device
	peer *Port
	wire *link.Wire // outbound direction
	rng  *sim.RNG
	gate TxGate
	// sched caches dev.net.Sch: the scheduler is consulted several
	// times per event and the two-level pointer chase shows up in
	// profiles at warehouse scale.
	sched *sim.Scheduler

	state portState
	// pd is the number of device clock ticks per port cycle: 1 in a
	// homogeneous network (the device clock IS the port clock), or the
	// port speed's Delta in a mixed-speed network whose devices run a
	// 0.32 ns base clock (§7). All PHY-timed arithmetic — insertion
	// slots, pipeline delays, beacon cadence, CDC alignment — works in
	// port cycles of pd device ticks.
	pd uint64
	// owdUnits is the one-way delay measured during INIT, in counter
	// units; -1 until measured.
	owdUnits int64
	// cdcFill is the synchronization-FIFO fill level latched when the
	// link came up: the "one random delay" of §2.5. Like a PCS elastic
	// buffer, the fill level is constant for the life of the link
	// session; only arrivals inside the metastability band dither.
	cdcFill int
	// fragmented selects the 1 GbE fragment encoding for this port.
	fragmented bool
	// uplink marks the port leading toward the master in §5.4 mode; only
	// uplink ports adjust the device counter then.
	uplink bool
	// faulty marks the peer as failed per §3.2 sliding-window detection.
	faulty bool
	// lastRx is the arrival time of the last message processed from the
	// peer (any type); the beacon-loss watchdog reads it.
	lastRx simTime

	beaconEvent sim.Event
	beaconsSent uint64

	// Beacon stats (hot: bumped per received beacon).
	beaconsReceived uint64
	beaconsIgnored  uint64
	jumps           uint64
}

// portCold is everything only bring-up, teardown, hardening, and
// diagnostics touch.
type portCold struct {
	idx int
	// sessionMinOwd is the smallest OWD any INIT round of this link
	// session measured (-1 before the first). A watchdog demote re-runs
	// INIT without a link bounce, so the CDC fill — and with it the
	// deterministic transit floor — is unchanged; but a short probe
	// burst can land entirely in the +1 region of the slow CDC beat and
	// come back one unit high. Re-measurements are therefore clamped to
	// the session minimum: overestimating the OWD ratchets the whole
	// network's counter (§3.3), while underestimating it merely costs
	// precision and is recovered at the next real link bounce.
	sessionMinOwd int64
	// initOutstanding maps the masked counter value embedded in each
	// in-flight INIT to its full value, so ACK echoes can be paired.
	initOutstanding map[uint64]uint64
	// initRTTs collects the RTT samples of this INIT round; the final
	// OWD uses the minimum, which carries the least CDC noise.
	initRTTs  []int64
	initEvent sim.Event // retry timer
	// initBackoff is the consecutive-empty-round count; the INIT retry
	// timeout doubles with it (capped) so a flapping or dead peer cannot
	// spin the state machine at full probe rate forever.
	initBackoff uint

	// watchEvent fires periodically while SYNCED and demotes the port
	// back to INIT when the peer has been silent (lastRx) for
	// beaconTimeoutIntervals beacon intervals.
	watchEvent sim.Event

	// Received-MSB state for reconstructing full 106-bit counters.
	peerMsb     uint64
	havePeerMsb bool
	pendingJoin *uint64 // JOIN that arrived before our OWD was measured

	// asm reassembles 1 GbE message fragments (nil until first use).
	asm *phy.Assembler

	// Failure handling (§3.2): guard violations within a sliding window
	// mark the peer faulty (the faulty flag itself is hot state).
	violationCount  int
	violationWindow uint64 // tick at which the current window started

	// Hardened-mode state (see harden.go). admitValid marks the session
	// past its first admitted message (whose forward lead the quorum
	// combiner vets); pullWindow/pulledUnits budget how far this peer
	// has pulled the counter forward per sliding window of the
	// free-running tick clock; lastTarget/lastTargetLocal hold the most
	// recent admitted observation — this port's quorum vote.
	admitValid      bool
	pullWindow      uint64 // free-running tick at which the pull window started
	pulledUnits     int64  // forward pull admitted within the current window
	lastTarget      uint64
	lastTargetLocal uint64
	haveTarget      bool
	rejectCount     int
	rejectWindow    uint64    // tick at which the rejection window started
	quarEvent       sim.Event // quarantine cooldown timer

	// Stats.
	droppedDown uint64 // blocks that arrived while the port was down

	// tname is the precomputed Name() used in trace events, set by
	// Network.Instrument so the hot path never formats strings.
	tname string
}

// Name identifies the port for diagnostics, e.g. "s1[2]".
func (p *Port) Name() string { return fmt.Sprintf("%s[%d]", p.dev.Name(), p.idx) }

// PairName identifies the link direction receiver-sender, matching the
// paper's figure labels (offsets measured at this port about its peer).
func (p *Port) PairName() string { return p.dev.Name() + "-" + p.peer.dev.Name() }

// Device returns the port's owning device.
func (p *Port) Device() *Device { return p.dev }

// Peer returns the port at the far end of the cable.
func (p *Port) Peer() *Port { return p.peer }

// OWDUnits returns the one-way delay measured during INIT, in counter
// units, or -1 if not yet measured.
func (p *Port) OWDUnits() int64 { return p.owdUnits }

// State exposes the protocol state (for tests and monitoring).
func (p *Port) State() string { return p.state.String() }

// Faulty reports whether this port has declared its peer faulty and
// stopped synchronizing to it.
func (p *Port) Faulty() bool { return p.faulty }

// Stats returns beacon counters: sent, received, ignored (guard or
// parity violations), and counter jumps caused by this port.
func (p *Port) Stats() (sent, received, ignored, jumps uint64) {
	return p.beaconsSent, p.beaconsReceived, p.beaconsIgnored, p.jumps
}

// SetGate replaces the port's transmit gate (traffic model).
func (p *Port) SetGate(g TxGate) { p.gate = g }

// --- Link-session lifecycle --------------------------------------------

// Up starts Algorithm 1 on this port: transition T0, "after the link is
// established with p". Both ends must be brought up for the handshake to
// complete; each direction measures its own delay. A link-up owns the
// link-up scope and nothing else: the session scope of a down port is
// already void.
func (p *Port) Up() {
	if p.state != portDown {
		return
	}
	tel := &p.dev.net.tel
	tel.portsUp.Add(1)
	tel.tr.Record(p.sch().Now(), telemetry.KindLinkUp, p.tname, 0, 0, "")
	p.setState(portInit)
	p.initBackoff = 0
	p.sessionMinOwd = -1
	p.rejectCount = 0
	if max := p.cfg().CDCMaxExtraTicks; max > 0 {
		p.cdcFill = p.rng.IntN(max + 1)
	}
	p.sendInit()
}

// endSession ends the link session and leaves the port in state next. It
// is the only code that voids the session scope — everything the port
// measured or concluded about its peer: the one-way delay, the MSB cache,
// a JOIN waiting for the delay, the fragment assembler, the faulty
// verdict with its violation count, the admission baseline and quorum
// vote, and the beacon / INIT / watchdog / cooldown timers. Every exit
// from a session (Down, demote, quarantine) is this call plus the one
// thing that exit adds.
//
// Two other scopes survive a session end. The link-up scope (cdcFill,
// sessionMinOwd) lasts until the next Up: a demotion re-measures on the
// same elastic-buffer fill. The sliding windows (violationWindow,
// rejectWindow and rejectCount) decay on the free-running tick clock
// alone, so a peer that alternates lies with re-INITs still accumulates
// toward quarantine.
func (p *Port) endSession(next portState) {
	p.setState(next)
	p.owdUnits = -1
	p.havePeerMsb = false
	p.pendingJoin = nil
	p.asm = nil
	p.faulty = false
	p.violationCount = 0
	p.admitValid = false
	p.pulledUnits = 0
	p.haveTarget = false
	p.beaconEvent.Cancel()
	p.initEvent.Cancel()
	p.watchEvent.Cancel()
	p.quarEvent.Cancel()
}

// Down tears the port down (cable pull, peer power-off). Pending beacons
// stop; counters keep running on both sides.
func (p *Port) Down() {
	if p.state != portDown {
		tel := &p.dev.net.tel
		tel.portsUp.Add(-1)
		tel.tr.Record(p.sch().Now(), telemetry.KindLinkDown, p.tname, 0, 0, "")
	}
	p.endSession(portDown)
}

// --- Pooled event dispatch --------------------------------------------

// Port actor opcodes: the steady-state beacon chain (beacon timer → TX
// pipeline → wire → RX pipeline → CDC crossing → process) runs entirely
// on pooled scheduler events — no closure allocations — with the block
// or message carried in the two event arguments.
const (
	evBeacon   uint8 = iota // a = port-cycle slot the beacon fired at
	evTxBlock               // a = block payload, b = sync byte: TX pipeline done, launch onto the wire
	evRxArrive              // a = block payload, b = sync byte: leading edge reached this port
	evCdc                   // a = block payload, b = sync byte: RX pipeline done, cross clock domains
	evProcess               // a = message payload, b = message type: aligned to a local tick
	evWatchdog              // a = silence threshold (sim.Time): beacon-loss sweep
)

// OnEvent implements sim.Actor.
func (p *Port) OnEvent(code uint8, a, b uint64) {
	switch code {
	case evBeacon:
		if p.state != portSynced {
			return
		}
		p.sendBeacon()
		p.scheduleBeacons(a)
	case evTxBlock:
		p.wire.SendBlockActor(phy.Block{Sync: byte(b), Payload: a}, p.peer, evRxArrive)
	case evRxArrive:
		p.onWireArrival(phy.Block{Sync: byte(b), Payload: a})
	case evCdc:
		p.cdcCross(phy.Block{Sync: byte(b), Payload: a})
	case evProcess:
		p.process(phy.Message{Type: phy.MsgType(b), Payload: a})
	case evWatchdog:
		p.watchdogSweep(simTime(a))
	}
}

// initSamples is how many INIT/INIT-ACK exchanges one delay measurement
// round performs; the minimum RTT is used (T2). Sampling the minimum
// strips the nondeterministic CDC additions, leaving the deterministic
// transit the §3.3 analysis calls d.
const initSamples = 8

// ackTurnaroundTicks is the deterministic delay between processing an
// INIT and inserting the INIT-ACK. It is part of the measured RTT, so
// together with α it sets where the measured OWD lands relative to the
// true transit.
const ackTurnaroundTicks = 3

// joinDelayTicks is how long after INIT-ACK a port waits before sending
// BEACON-JOIN, leaving time for the peer to finish its own delay
// measurement.
const joinDelayTicks = 2_000

func (p *Port) sendInit() {
	tel := &p.dev.net.tel
	tel.initRounds.Inc()
	tel.tr.Record(p.sch().Now(), telemetry.KindInitRound, p.tname, int64(len(p.initRTTs)), 0, "")
	p.initOutstanding = map[uint64]uint64{}
	p.initRTTs = p.initRTTs[:0]
	mask := p.codec().CounterMask()
	for i := 0; i < initSamples; i++ {
		// Space the probes so each sees an independent CDC phase; the
		// counter is read at the insertion tick, not at scheduling
		// time, since the RTT is relative to the embedded value.
		p.transmitNow(1+i*137, phy.MsgInit, func() uint64 {
			full := p.dev.gc.at(p.sch().Now())
			p.initOutstanding[full&mask] = full
			return full
		})
	}
	// Retry if INITs or ACKs are lost — to bit errors, or because the
	// peer had not come up yet. The base timeout is generous relative to
	// any plausible RTT (20k ticks ≈ 128 µs at 10 GbE); consecutive
	// rounds with zero replies double it, bounded, so a dead or
	// partitioned peer costs ever fewer probes instead of a full-rate
	// spin. The backoff resets the moment the peer shows life (an INIT
	// from it, a completed measurement, or a fresh link-up).
	retry := p.dev.tickDur(initRetryTicks << p.initBackoff)
	p.initEvent = p.sch().After(retry, func() {
		if p.state != portInit {
			return
		}
		if len(p.initRTTs) > 0 {
			p.finishInit() // partial round: use what arrived
			return
		}
		if p.initBackoff < maxInitBackoff {
			p.initBackoff++
		}
		p.sendInit()
	})
}

// initRetryTicks is the base INIT-round retry timeout; maxInitBackoff
// caps the exponential backoff at initRetryTicks<<maxInitBackoff
// (640k ticks ≈ 4.1 ms at 10 GbE).
const (
	initRetryTicks = 20_000
	maxInitBackoff = 5
)

// --- Transmit path ----------------------------------------------------

// transmitNow inserts a message into the next idle block at least
// `after` port cycles ahead, then models the deterministic TX pipeline
// and the wire. The payload is evaluated at the insertion instant so
// embedded counters are exact even when the transmit gate delays the
// slot. The current block is already committed to the wire, so the
// earliest insertion opportunity is one cycle out.
func (p *Port) transmitNow(after int, t phy.MsgType, payload func() uint64) {
	if after < 1 {
		after = 1
	}
	cycle := p.nextCycleTick(p.dev.clock.Counter()+1)/p.pd + uint64(after-1)
	slot := p.gate.NextSlot(cycle)
	at := p.dev.clock.TimeOfCount(slot * p.pd)
	p.sch().At(at, func() { p.insert(t, payload()) })
}

// insert composes the message with the counter value as of the insertion
// tick (the DTP sublayer and the counter share a clock domain, so the
// embedded value is exact, §4.2) and sends it down the TX pipeline. At
// 1 GbE the message leaves as four back-to-back ordered-set fragments.
func (p *Port) insert(t phy.MsgType, payload uint64) {
	if p.state == portDown {
		return // slot fired after the port was torn down
	}
	codec := p.codec()
	m := phy.Message{Type: t, Payload: payload & codec.CounterMask()}
	txDelay := p.cycleDur(phy.DefaultTxPipelineTicks)
	if !p.fragmented {
		b := codec.EmbedMessage(m)
		p.sch().AfterActor(txDelay, p, evTxBlock, b.Payload, uint64(b.Sync))
		return
	}
	for i, f := range phy.FragmentMessage(codec, m) {
		b := phy.EmbedFragment(f)
		d := txDelay + p.cycleDur(i) // consecutive line cycles
		p.sch().AfterActor(d, p, evTxBlock, b.Payload, uint64(b.Sync))
	}
}

// msbEveryBeacons is how many BEACONs pass between BEACON-MSB
// transmissions of the counter's upper bits.
const msbEveryBeacons = 100_000

// sendBeacon implements T3: transmit (BEACON, gc). Every
// msbEveryBeacons-th message instead carries the counter's upper bits.
func (p *Port) sendBeacon() {
	now := p.sch().Now()
	gc := p.dev.gc.at(now) + p.dev.lieUnits
	p.beaconsSent++
	tel := &p.dev.net.tel
	tel.sentN++
	if tel.tr.Enabled(telemetry.KindBeaconTx) {
		tel.tr.Record(now, telemetry.KindBeaconTx, p.tname, int64(gc), 0, "")
	}
	if p.beaconsSent%msbEveryBeacons == 0 {
		p.insert(phy.MsgBeaconMSB, gc>>p.counterBits())
		return
	}
	p.insert(phy.MsgBeacon, gc)
}

// sendJoinPair transmits BEACON-MSB followed by BEACON-JOIN so the peer
// can reconstruct the full counter and make an arbitrarily large
// adjustment (§3.2 "Network dynamics").
func (p *Port) sendJoinPair() {
	if p.state != portSynced {
		return
	}
	cycle := p.nextCycleTick(p.dev.clock.Counter()+1) / p.pd
	slot1 := p.gate.NextSlot(cycle)
	slot2 := p.gate.NextSlot(slot1 + 1)
	p.sch().At(p.dev.clock.TimeOfCount(slot1*p.pd), func() {
		p.insert(phy.MsgBeaconMSB, (p.dev.GlobalCounter()+p.dev.lieUnits)>>p.counterBits())
	})
	p.sch().At(p.dev.clock.TimeOfCount(slot2*p.pd), func() {
		p.insert(phy.MsgBeaconJoin, p.dev.GlobalCounter()+p.dev.lieUnits)
	})
}

// scheduleBeacons arranges T3 to fire every BeaconIntervalTicks port
// cycles of the local oscillator, delayed to the next idle block under
// load. fromCycle is a port-cycle index.
func (p *Port) scheduleBeacons(fromCycle uint64) {
	cfg := p.cfg()
	next := fromCycle + cfg.BeaconIntervalTicks
	slot := p.gate.NextSlot(next)
	p.beaconEvent = p.sch().AtActor(p.dev.clock.TimeOfCount(slot*p.pd), p, evBeacon, slot, 0)
}

// --- Receive path -----------------------------------------------------

// onWireArrival fires when the leading edge of a block reaches this
// port. The RX PCS pipeline runs in the recovered clock domain (the
// sender's frequency); the message then crosses into the local clock
// domain through a synchronization FIFO that aligns it to the next local
// tick plus 0..CDCMaxExtraTicks random whole ticks — the only
// nondeterminism on an otherwise idle link (§2.5).
func (p *Port) onWireArrival(b phy.Block) {
	if p.arrivedDown() {
		return
	}
	// The RX pipeline runs in the recovered clock domain: the sender's
	// port-cycle rate.
	rxDelay := p.peer.cycleDur(phy.DefaultRxPipelineTicks)
	p.sch().AfterActor(rxDelay, p, evCdc, b.Payload, uint64(b.Sync))
}

func (p *Port) cdcCross(b phy.Block) {
	if p.arrivedDown() {
		return
	}
	if !b.Valid() {
		return // sync header corrupted: block discarded by block sync
	}
	var m phy.Message
	var ok bool
	if p.fragmented {
		// 1 GbE: reassemble ordered-set fragments in the RX domain; a
		// complete in-order message crosses the FIFO as a unit.
		frag, fok := phy.ExtractFragment(b)
		if !fok {
			return
		}
		if p.asm == nil {
			p.asm = phy.NewAssembler(p.codec())
		}
		m, ok = p.asm.Push(frag)
	} else {
		_, m, ok = p.codec().ExtractMessage(b)
	}
	if !ok {
		return // plain idle, partial message, undefined type, or parity failure
	}
	now := p.sch().Now()
	tick := p.nextCycleTick(p.dev.clock.CounterAt(now)+1) + uint64(p.cdcExtraCycles(now))*p.pd
	p.sch().AtActor(p.dev.clock.TimeOfCount(tick), p, evProcess, m.Payload, uint64(m.Type))
}

// The synchronizer's timing, fixed by the modelled hardware rather than
// by any experiment.
const (
	// cdcSetupFraction models *when* the synchronizer adds its extra
	// cycle: if the data lands within this fraction of a period before
	// the capturing edge, the setup time is violated and the FIFO takes
	// one more cycle. Because the two clock domains beat slowly against
	// each other, the extra cycle is a quasi-static function of phase —
	// not an independent coin flip per message — which is what keeps
	// worst cases from compounding across INIT measurement and beacons.
	// Typed, so the setup window is float64 arithmetic throughout.
	cdcSetupFraction float64 = 0.15

	// cdcJitterFs is the width of the metastability band around the
	// setup threshold within which the outcome is genuinely random
	// (200 ps).
	cdcJitterFs int64 = 200_000
)

// cdcExtraTicks models the synchronization FIFO between the recovered
// and local clock domains. Its base delay is the fill level latched at
// link-up (constant for the session, like a PCS elastic buffer — this
// is the "one random delay" of §2.5 that the INIT measurement absorbs
// into the measured OWD). On top of that, data landing inside the setup
// window just before the capturing edge takes one extra cycle, with
// true randomness only inside a narrow metastability band.
func (p *Port) cdcExtraCycles(now simTime) int {
	if p.cfg().CDCMaxExtraTicks <= 0 {
		return 0
	}
	clk := p.dev.clock
	nextEdge := clk.TimeOfCount(p.nextCycleTick(clk.CounterAt(now) + 1))
	residFs := (nextEdge - now).Fs()
	setupFs := int64(cdcSetupFraction * float64(clk.PeriodFs()) * float64(p.pd))
	extra := 0
	switch {
	case residFs < setupFs-cdcJitterFs:
		extra = 1
	case residFs < setupFs+cdcJitterFs:
		extra = p.rng.IntN(2) // metastable: either outcome
	}
	return p.cdcFill + extra
}

// process handles a message in the local clock domain.
func (p *Port) process(m phy.Message) {
	if p.arrivedDown() {
		return
	}
	if p.state == portQuarantined {
		// A quarantined port trusts nothing from its peer — not even an
		// INIT, which would let a Byzantine peer re-arm a session before
		// the cooldown's re-INIT escape hatch runs.
		return
	}
	p.lastRx = p.sch().Now()
	switch m.Type {
	case phy.MsgInit:
		// T1: reply with INIT-ACK echoing the sender's counter. The
		// reply turnaround is a deterministic pipeline constant: the
		// ACK enters the TX path two cycles after the INIT is
		// processed. Together with α = 3 this biases the measured OWD
		// to transit-1..transit, the regime the §3.3 analysis assumes.
		echo := m.Payload
		p.transmitNow(ackTurnaroundTicks, phy.MsgInitAck, func() uint64 { return echo })
		// A peer that probes us while we are backed off has just come
		// back: drop the backoff and start a fresh full-rate round now
		// instead of waiting out an inflated retry timer. Loop-safe —
		// the re-kick only fires when this side was actually backed off,
		// and it resets the backoff first.
		if p.state == portInit && p.initBackoff > 0 {
			p.initBackoff = 0
			p.initEvent.Cancel()
			p.sendInit()
		}
	case phy.MsgInitAck:
		p.handleInitAck(m.Payload)
	case phy.MsgBeacon:
		p.handleBeacon(m.Payload)
	case phy.MsgBeaconMSB:
		p.peerMsb = m.Payload
		p.havePeerMsb = true
	case phy.MsgBeaconJoin:
		p.handleJoin(m.Payload)
	}
}

// handleInitAck collects one RTT sample; the round finishes when all
// probes are answered (T2: d ← (min lc − c − α)/2).
func (p *Port) handleInitAck(echo uint64) {
	if p.state != portInit {
		return
	}
	sent, ok := p.initOutstanding[echo]
	if !ok {
		return // stale or corrupted ACK
	}
	delete(p.initOutstanding, echo)
	now := p.sch().Now()
	lc := p.dev.gc.at(now)
	rtt := int64(lc - sent)
	cfg := p.cfg()
	// A counter jump between INIT and ACK (e.g. a racing BEACON-JOIN)
	// inflates the apparent RTT; drop the poisoned sample.
	limit := int64(cfg.BeaconIntervalTicks*40+20_000) * int64(cfg.UnitsPerTick) * int64(p.pd)
	if rtt >= 0 && rtt < limit {
		p.initRTTs = append(p.initRTTs, rtt)
	}
	if len(p.initRTTs) >= initSamples {
		p.finishInit()
	}
}

// finishInit derives the one-way delay from the collected RTT samples
// and starts the BEACON phase.
func (p *Port) finishInit() {
	if p.state != portInit || len(p.initRTTs) == 0 {
		return
	}
	cfg := p.cfg()
	min := p.initRTTs[0]
	for _, r := range p.initRTTs[1:] {
		if r < min {
			min = r
		}
	}
	// α scales with the port cycle: it compensates CDC cycles, which
	// cost pd units each at this port's speed.
	d := (min - cfg.AlphaUnits*int64(p.pd)) / 2
	if d < 0 {
		d = 0
	}
	if p.sessionMinOwd >= 0 && p.sessionMinOwd < d {
		d = p.sessionMinOwd // same link session: trust only the floor
	}
	p.sessionMinOwd = d
	p.owdUnits = d
	p.setState(portSynced)
	p.initBackoff = 0
	tel := &p.dev.net.tel
	tel.owd.Observe(float64(d))
	tel.tr.Record(p.sch().Now(), telemetry.KindSynced, p.tname, d, int64(len(p.initRTTs)), "")
	p.initEvent.Cancel()
	// A JOIN that raced ahead of our delay measurement can now apply —
	// through the same session-initial admission as any other JOIN, or
	// the race would be a bypass. It stays cached until the session ends;
	// nothing reads it once the delay is known.
	if p.pendingJoin != nil {
		target := *p.pendingJoin + uint64(d)
		if p.admit(target, p.dev.GlobalCounter(), true) {
			p.dev.jump(target, p, true)
		}
		if p.state != portSynced {
			return // the rejected JOIN tripped quarantine
		}
	}
	// Announce our counter for max-agreement, then start beacons and
	// the beacon-loss watchdog.
	p.sch().After(p.cycleDur(joinDelayTicks), p.sendJoinPair)
	p.scheduleBeacons(p.dev.clock.Counter() / p.pd)
	p.lastRx = p.sch().Now()
	p.scheduleWatchdog()
}

// handleBeacon implements T4: lc ← max(lc, c + d), with the paper's
// bit-error guard and faulty-peer detection.
func (p *Port) handleBeacon(lsb uint64) {
	if p.state != portSynced || p.owdUnits < 0 {
		return
	}
	now := p.sch().Now()
	local := p.dev.gc.at(now)
	c := reconstructNear(local, lsb, p.counterBits())
	target := c + uint64(p.owdUnits)
	p.beaconsReceived++

	offset := int64(local) - int64(target) // == t2 - t1 - OWD (§6.2)

	tel := &p.dev.net.tel
	tel.rxN++
	if p.faulty {
		p.beaconsIgnored++
		tel.ignoredN++
		return
	}
	cfg := p.cfg()
	if guard := cfg.GuardUnits * int64(p.pd); offset < -guard || offset > guard {
		// Counter off by more than the guard: treat as bit error.
		p.beaconsIgnored++
		tel.ignoredN++
		if tel.tr.Enabled(telemetry.KindBeaconIgnored) {
			tel.tr.Record(now, telemetry.KindBeaconIgnored, p.tname, offset, 0, "")
		}
		p.recordViolation()
		return
	}
	// Bounded-jump admission: a beacon that passes the guard can still
	// ratchet the fabric a few units at a time; the windowed pull budget
	// caps what this peer may drag the counter forward.
	if !p.admit(target, local, false) {
		p.beaconsIgnored++
		tel.ignoredN++
		return
	}
	tel.offBatch.Observe(float64(offset))
	if tel.tr.Enabled(telemetry.KindBeaconRx) {
		tel.tr.Record(now, telemetry.KindBeaconRx, p.tname, offset, 0, "")
	}
	if cfg.FollowMaster {
		// §5.4: only the uplink disciplines the counter; it follows the
		// parent in both directions — forward by jumping, backward (a
		// faster local oscillator) by stalling until the parent catches
		// up. Non-uplink ports still observe offsets.
		if p.uplink {
			switch {
			case target > local:
				p.jumps++
				p.dev.jump(target, p, false)
			case target < local:
				p.dev.stall(local-target, now)
			}
		}
	} else if target > local {
		p.jumps++
		p.dev.jump(target, p, false)
	}
	if p.dev.net.OnOffset != nil {
		p.dev.net.OnOffset(p, offset)
	}
}

// handleJoin applies a BEACON-JOIN: a forward adjustment to the agreed
// maximum counter — unguarded in plain DTP, which makes it the prime
// Byzantine attack surface; hardened mode routes it through the same
// bounded-jump admission as beacons.
func (p *Port) handleJoin(lsb uint64) {
	bits := p.counterBits()
	var full uint64
	if p.havePeerMsb {
		full = p.peerMsb<<bits | lsb
	} else {
		full = reconstructNear(p.dev.GlobalCounter(), lsb, bits)
	}
	if p.owdUnits < 0 {
		p.pendingJoin = &full
		return
	}
	target := full + uint64(p.owdUnits)
	local := p.dev.GlobalCounter()
	if p.admit(target, local, true) && target > local {
		p.jumps++
		p.dev.jump(target, p, true)
	}
}

// Faulty-peer detection (§3.2 "Handling failures"): more than
// faultyJumpLimit guard-violating beacons within faultyWindowTicks of
// the free-running tick clock (≈ 6.4 ms at 10 GbE) mark the peer faulty,
// and the port ignores it until the link session ends — the paper
// leaves a faulty port down for human repair. The same window paces
// hardened mode's pull budget and quarantine count (harden.go).
const (
	faultyJumpLimit   = 16
	faultyWindowTicks = 1_000_000
)

// recordViolation counts guard violations in a sliding window; too many
// mark the peer faulty.
func (p *Port) recordViolation() {
	tick := p.dev.clock.Counter()
	if tick-p.violationWindow > faultyWindowTicks {
		p.violationWindow, p.violationCount = tick, 0
	}
	p.violationCount++
	tel := &p.dev.net.tel
	tel.violations.Inc()
	if p.violationCount > faultyJumpLimit {
		if !p.faulty {
			tel.faultyPorts.Inc()
			tel.tr.Record(p.sch().Now(), telemetry.KindFaultyPeer, p.tname,
				int64(p.violationCount), 0, "")
		}
		p.faulty = true
	}
}

// --- Beacon-loss watchdog (hardening beyond the paper) ----------------

// Demotion reasons carried in KindPortDemoted trace events. Code 1 was
// a retired faulty-mark cooldown; the codes keep their values so traces
// read the same.
const (
	demoteBeaconLoss = 0 // peer silent for beaconTimeoutIntervals
	demoteQuarantine = 2 // quarantine cooldown expired: re-INIT escape hatch
)

// beaconTimeoutIntervals is the beacon-loss watchdog: a SYNCED port that
// hears nothing from its peer for this many beacon intervals demotes
// itself back to INIT and re-measures the delay, instead of free-running
// forever against a silently dead peer (a grey failure an explicit
// link-down never reports).
const beaconTimeoutIntervals = 50

// scheduleWatchdog arms the beacon-loss watchdog: while SYNCED, the port
// checks every beaconTimeoutIntervals beacon intervals that the peer has
// said *something*. A peer that is nominally up but silent — a grey
// failure the link layer never reports — would otherwise leave this port
// free-running in SYNCED forever, consuming drift with no resync.
func (p *Port) scheduleWatchdog() {
	p.watchEvent.Cancel()
	period := p.cycleDur(int(p.cfg().BeaconIntervalTicks) * beaconTimeoutIntervals)
	// The silence threshold rides in the event payload: it must be the
	// period as computed when the sweep was armed, not re-derived at
	// fire time from a possibly-wandered oscillator rate.
	p.watchEvent = p.sch().AfterActor(period, p, evWatchdog, uint64(period), 0)
}

// watchdogSweep is the evWatchdog body: demote on peer silence,
// otherwise re-arm.
func (p *Port) watchdogSweep(period simTime) {
	if p.state != portSynced {
		return
	}
	if p.sch().Now()-p.lastRx >= period {
		p.demote(demoteBeaconLoss, "")
		return
	}
	p.scheduleWatchdog()
}

// demote ends the session of a SYNCED or quarantined port and re-runs
// the delay measurement (the measured OWD is stale by definition — the
// peer went away, was declared faulty, or sat out a quarantine). Unlike
// Down, the port stays administratively up, so the re-INIT starts
// immediately.
func (p *Port) demote(reason int64, detail string) {
	tel := &p.dev.net.tel
	tel.demotions.Inc()
	tel.tr.Record(p.sch().Now(), telemetry.KindPortDemoted, p.tname, reason, p.owdUnits, detail)
	p.endSession(portInit)
	p.sendInit()
}

// arrivedDown reports whether the port is down, accounting for the block
// or message that just reached it: the peer is still transmitting into a
// dead interface, a mismatch worth surfacing
// (dtp_port_dropped_down_total) because it distinguishes one-sided
// teardown from clean link death.
func (p *Port) arrivedDown() bool {
	if p.state != portDown {
		return false
	}
	p.droppedDown++
	p.dev.net.tel.droppedDownN++
	return true
}

// DroppedDown returns how many blocks arrived while the port was down.
func (p *Port) DroppedDown() uint64 { return p.droppedDown }

// --- Helpers ----------------------------------------------------------

func (p *Port) sch() *sim.Scheduler { return p.sched }
func (p *Port) cfg() *Config        { return &p.dev.net.cfg }
func (p *Port) codec() phy.Codec    { return p.dev.net.codec }

// nextCycleTick returns the smallest port-cycle boundary (device tick
// that is a multiple of pd) at or after `from`.
func (p *Port) nextCycleTick(from uint64) uint64 {
	return (from + p.pd - 1) / p.pd * p.pd
}

// cycleDur returns the duration of n of this port's cycles at the
// device oscillator's current rate.
func (p *Port) cycleDur(n int) simTime {
	return sim.Femto(int64(n) * int64(p.pd) * p.dev.clock.PeriodFs())
}

// counterBits is the number of counter LSBs a message payload carries.
func (p *Port) counterBits() uint {
	if p.cfg().Parity {
		return phy.PayloadBits - 1
	}
	return phy.PayloadBits
}
