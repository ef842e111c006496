package core

import (
	"fmt"

	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

// portState tracks where a port is in Algorithm 1.
type portState uint8

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
	state   portState
	// fragmented selects the 1 GbE fragment encoding for this port.
	fragmented bool
	// noInbox keeps this port's settled arrivals out of its device's
	// inbox: hardened, with beacons that were once spaced too far apart
	// for an arrival to wait there (see setGate).
	noInbox bool
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

	// crossUntil is the latest instant at which a block bound for this
	// port may yet reach its clock-domain crossing as an event — a block
	// on the per-stage path, or a landing kept as evLand — and draw there
	// if it lands in the metastability band. Until it has passed, land
	// keeps band landings as evLand too, so the port's stream draws in
	// crossing order (see crossingAhead).
	crossUntil simTime

	// Stats.
	droppedDown uint64 // blocks that arrived while the port was down

	// tname is the precomputed Name() used in trace events, set by
	// WithTelemetry so the hot path never formats strings.
	tname string
}

// Name identifies the port for diagnostics, e.g. "s1[2]".
func (p *Port) Name() string { return fmt.Sprintf("%s[%d]", p.dev.Name(), p.idx) }

// PairName identifies the link direction receiver-sender, matching the
// paper's figure labels (offsets measured at this port about its peer).
func (p *Port) PairName() string { return p.dev.Name() + "-" + p.peer.dev.Name() }

// Device returns the port's owning device.
func (p *Port) Device() *Device { return p.dev }

// OWDUnits returns the one-way delay measured during INIT, in counter
// units, or -1 if not yet measured.
func (p *Port) OWDUnits() int64 {
	p.dev.settle()
	return p.owdUnits
}

// State exposes the protocol state (for tests and monitoring).
func (p *Port) State() string {
	p.dev.settle()
	return p.state.String()
}

// Stats returns beacon counters: sent, received, ignored (guard or
// parity violations), and counter jumps caused by this port.
func (p *Port) Stats() (sent, received, ignored, jumps uint64) {
	p.dev.settle()
	return p.beaconsSent, p.beaconsReceived, p.beaconsIgnored, p.jumps
}

// setGate replaces the port's transmit gate (traffic model). A gate
// that spaces a hardened port's beacons too far apart for its arrivals
// to wait in the inbox (arrivalsMayWait) turns those waiting there back
// into events, and the port's arrivals stay events from then on: a
// beacon timer armed under that gate may still be pending after the
// next change.
func (p *Port) setGate(g TxGate) {
	p.gate = g
	if !p.noInbox && !p.arrivalsMayWait() {
		p.noInbox = true
		p.dev.evict(p)
	}
}

// --- Link-session lifecycle --------------------------------------------

// Up starts Algorithm 1 on this port: transition T0, "after the link is
// established with p". Both ends must be brought up for the handshake to
// complete; each direction measures its own delay. A link-up owns the
// link-up scope and nothing else: the session scope of a down port is
// already void.
func (p *Port) Up() {
	p.dev.settle()
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
// stop; counters keep running on both sides. Flights toward the port
// that have not arrived go back to the five-event chain first, and
// settled ones that have not landed back to their landing, to meet the
// down port as they would have.
func (p *Port) Down() {
	p.dev.settle()
	p.peer.wire.Refile()
	p.peer.wire.Unsettle()
	if p.state != portDown {
		tel := &p.dev.net.tel
		tel.portsUp.Add(-1)
		tel.tr.Record(p.sch().Now(), telemetry.KindLinkDown, p.tname, 0, 0, "")
	}
	p.endSession(portDown)
}

// --- Pooled event dispatch --------------------------------------------

// Port actor opcodes. A message costs two scheduler events on a clean
// wire toward a peer that is up: the beacon timer (or the closure that
// inserts an INIT, ACK or JOIN) and evProcess on the receiver's local
// tick — and an untraced BEACON only the first, its processing filed in
// the receiving device's inbox (Device.file). Insert launches the block
// as a link flight: the TX pipeline, the cable and the RX pipeline are
// fixed delays, so the instant the block reaches the receiver's
// clock-domain crossing is known at launch, and the crossing itself is
// a function of the receiver's oscillator phase — and, inside the
// metastability band, of one draw on the receiver's stream, which the
// receiver then takes at launch — so the receiver settles evProcess at
// launch (land), in the place among same-instant process events that a
// landing would have given it, and the three stages between are
// skipped. A block that does not parse, a landing in the band while a
// block bound for the same port is still on its way to a crossing run
// as an event, and a settled flight whose receiver changes rate or goes
// down before the landing keep evLand at the crossing instead. A lossy
// or bit-error wire, 1 GbE fragments, a full flight ring, a peer that is
// down, and every flight re-filed by a change that a skipped stage
// before the far end reads take the five-event chain, evTxBlock →
// evRxArrive → evCdc → evProcess, which is also the reference the fused
// chain is tested against. Every stage is a pooled event with the block
// or message in its two arguments: the chain allocates nothing.
const (
	evBeacon   uint8 = iota // a = port-cycle slot the beacon fired at
	evTxBlock               // a = block payload, b = sync byte: TX pipeline done, launch onto the wire
	evRxArrive              // a = block payload, b = sync byte: leading edge reached this port
	evCdc                   // a = block payload, b = sync byte: RX pipeline done, cross clock domains
	evProcess               // a = message payload, b = message type: aligned to a local tick
	evWatchdog              // a = silence threshold (sim.Time): beacon-loss sweep
	_                       // lane 6 is timesvc.Load's
	evLand                  // a = block payload, b = sync byte: a flight's evCdc, in the lane evSettled shares (see land)
	// evSettled is evProcess for a settled flight (see land), in evLand's
	// lane: both are scheduled at launch for the crossing, so together
	// they arrive in time order, where evProcess's lane holds events
	// scheduled at the crossing, a flight's length later.
	evSettled = evLand | 8
)

// fuseChain launches blocks as link flights. Only tests turn it off, to
// run the five-event chain as the reference (export_test.go).
var fuseChain = true

// OnEvent implements sim.Actor. Every event first applies the device's
// due inbox arrivals (Device.settle).
func (p *Port) OnEvent(code uint8, a, b uint64) {
	p.dev.settle()
	switch code {
	case evBeacon:
		if p.state != portSynced {
			return
		}
		p.sendBeacon()
		p.scheduleBeacons(a)
	case evTxBlock:
		p.peer.crossingAhead(p.sch().Now() + p.wire.Delay())
		p.wire.SendBlockActor(phy.Block{Sync: byte(b), Payload: a}, p.peer, evRxArrive)
	case evRxArrive:
		p.onWireArrival(phy.Block{Sync: byte(b), Payload: a})
	case evCdc, evLand:
		p.cdcCross(phy.Block{Sync: byte(b), Payload: a})
	case evProcess, evSettled:
		p.process(phy.Message{Type: phy.MsgType(b), Payload: a}, p.sch().Now())
	case evWatchdog:
		p.watchdogSweep(simTime(a))
	}
}

// refile is the outbound wire's way back to per-stage events (see
// link.Wire.Refile and Unsettle): a flight whose TX pipeline is still
// ahead resumes at evTxBlock, one already on the cable at the peer's
// evRxArrive, and a settled one past the far end at the peer's evLand,
// in the place its launch reserved. A flight the peer filed in its
// inbox has no event to cancel: it leaves the inbox here, at any stage.
// A flight whose band draw the peer took at launch hands it back too:
// the peer's stream goes back to where it stood before, and the flight
// draws again when it crosses, in crossing order (crossingAhead).
func (p *Port) refile(f link.Flight, from link.Stage) sim.Event {
	p.peer.dev.unfile(f.Key.Seq)
	if f.Drew {
		p.peer.rng.Rewind(f.Mark)
	}
	p.peer.crossingAhead(f.T3)
	b := f.Block
	switch from {
	case link.TxAhead:
		return p.sch().AtActor(f.T1, p, evTxBlock, b.Payload, uint64(b.Sync))
	case link.OnCable:
		return p.sch().AtActor(f.T2, p.peer, evRxArrive, b.Payload, uint64(b.Sync))
	}
	return p.sch().AtActorKey(f.T3, f.Key, p.peer, evLand, b.Payload, uint64(b.Sync))
}

// land is the inbound wire's launch hook (link.Wire.OnFlights): flight
// f's block reaches this port's clock-domain crossing at f.T3, in f.Key's
// place (1 GbE fragments never launch: see insert). When the block
// parses, the message is settled: it is processed on the local
// port-cycle tick (cdcTick, the arithmetic cdcCross runs at T3), keyed
// as if evLand had scheduled it at T3 — after every event scheduled
// before T3, and among process events in landing order. A landing in
// the metastability band takes its draw (bandCycle) here, at launch,
// with the stream's mark kept in f for refile to rewind to; but while a
// block bound for this port may still cross as an event before it
// (crossUntil), that crossing has to draw first, so the band landing
// keeps its evLand. A settled BEACON or BEACON-MSB goes to the device's
// inbox when it may (Device.file), with no event at all; anything else
// settled is evSettled at that tick and key. Otherwise land schedules
// evLand at T3 in f.Key's place.
func (p *Port) land(f *link.Flight) {
	b := f.Block
	if b.Valid() {
		if _, m, ok := p.codec().ExtractMessage(b); ok {
			tick, metastable := p.cdcTick(f.T3)
			if metastable && p.crossUntil < p.sch().Now() {
				f.Drew, f.Mark = true, p.rng.Mark()
				tick += p.bandCycle()
				metastable = false
			}
			if !metastable {
				f.Settled = true
				at, key := p.dev.clock.TimeOfCount(tick), sim.Key{From: f.T3, Seq: f.Key.Seq}
				if !p.dev.file(arrival{at: at, key: key, p: p, payload: m.Payload, typ: m.Type}) {
					f.Ev = p.sch().AtActorKey(at, key, p, evSettled, m.Payload, uint64(m.Type))
				}
				return
			}
		}
	}
	p.crossingAhead(f.T3)
	f.Ev = p.sch().AtActorKey(f.T3, f.Key, p, evLand, b.Payload, uint64(b.Sync))
}

// crossingAhead notes that a block bound for this port may reach its
// clock-domain crossing as an event as late as t, and draw there: until
// t has passed, band landings keep their evLand (see land). Every block
// off the flight path calls it at each stage it is scheduled for: the
// TX pipeline, the cable and the RX pipeline.
func (p *Port) crossingAhead(t simTime) {
	if t > p.crossUntil {
		p.crossUntil = t
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
		p.dev.settle()
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
	p.sch().At(at, func() {
		p.dev.settle()
		p.insert(t, payload())
	})
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
		// The sums evTxBlock and evRxArrive would make: the RX pipeline
		// runs at this (the sender's) port-cycle rate.
		t1 := p.sch().Now() + txDelay
		if fuseChain && p.peer.state != portDown &&
			p.wire.LaunchActor(b, t1, p.cycleDur(phy.DefaultRxPipelineTicks)) {
			return
		}
		p.peer.crossingAhead(t1)
		p.sch().AtActor(t1, p, evTxBlock, b.Payload, uint64(b.Sync))
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
	p.dev.settle()
	if p.state != portSynced {
		return
	}
	cycle := p.nextCycleTick(p.dev.clock.Counter()+1) / p.pd
	slot1 := p.gate.NextSlot(cycle)
	slot2 := p.gate.NextSlot(slot1 + 1)
	p.sch().At(p.dev.clock.TimeOfCount(slot1*p.pd), func() {
		p.dev.settle()
		p.insert(phy.MsgBeaconMSB, (p.dev.GlobalCounter()+p.dev.lieUnits)>>p.counterBits())
	})
	p.sch().At(p.dev.clock.TimeOfCount(slot2*p.pd), func() {
		p.dev.settle()
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
	p.crossingAhead(p.sch().Now() + rxDelay)
	p.sch().AfterActor(rxDelay, p, evCdc, b.Payload, uint64(b.Sync))
}

// cdcCross runs a block's clock-domain crossing as an event: evCdc on
// the five-event chain, evLand for a flight that land did not settle.
// A message that parses is processed on cdcTick's local tick; in the
// metastability band the extra cycle is drawn here, at the crossing
// (bandCycle), which keeps the port's draws in crossing order.
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
	tick, metastable := p.cdcTick(p.sch().Now())
	if metastable {
		tick += p.bandCycle()
	}
	p.sch().AtActor(p.dev.clock.TimeOfCount(tick), p, evProcess, m.Payload, uint64(m.Type))
}

// bandCycle draws a metastability-band landing's outcome on the port's
// stream: no extra port cycle, or one. It is the one draw on that
// stream besides Up's cdcFill, taken by land at launch or by cdcCross
// at the crossing; ROADMAP item 2's CDC chooser would hook it.
func (p *Port) bandCycle() uint64 { return uint64(p.rng.IntN(2)) * p.pd }

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

// cdcTick models the synchronization FIFO between the recovered and
// local clock domains: the local tick on which a block reaching it at t
// is processed. That is the next port-cycle edge plus the FIFO's base
// delay, the fill level latched at link-up (constant for the session,
// like a PCS elastic buffer — this is the "one random delay" of §2.5
// that the INIT measurement absorbs into the measured OWD). On top of
// that, data landing inside the setup window just before the capturing
// edge takes one extra cycle, with true randomness only inside a narrow
// metastability band: there metastable is set, and bandCycle draws
// whether the extra cycle is taken. Outside the band the tick is a
// function of t and the local oscillator alone.
func (p *Port) cdcTick(t simTime) (tick uint64, metastable bool) {
	clk := p.dev.clock
	edge := p.nextCycleTick(clk.CounterAt(t) + 1)
	if p.cfg().CDCMaxExtraTicks <= 0 {
		return edge, false
	}
	residFs := (clk.TimeOfCount(edge) - t).Fs()
	setupFs := int64(cdcSetupFraction * float64(clk.PeriodFs()) * float64(p.pd))
	cycles := uint64(p.cdcFill)
	switch {
	case residFs < setupFs-cdcJitterFs:
		cycles++
	case residFs < setupFs+cdcJitterFs:
		metastable = true
	}
	return edge + cycles*p.pd, metastable
}

// process handles a message in the local clock domain at now, its own
// instant: the scheduler's clock for an event, an earlier one for an
// inbox arrival applied late (Device.settle). Only BEACON and
// BEACON-MSB arrive late, so only their paths take now from here; the
// others schedule, and run only as events.
func (p *Port) process(m phy.Message, now simTime) {
	if p.arrivedDown() {
		return
	}
	if p.state == portQuarantined {
		// A quarantined port trusts nothing from its peer — not even an
		// INIT, which would let a Byzantine peer re-arm a session before
		// the cooldown's re-INIT escape hatch runs.
		return
	}
	p.lastRx = now
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
		p.handleBeacon(m.Payload, now)
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
		if local := p.dev.GlobalCounter(); p.admit(target, local, true, p.sch().Now()) {
			p.dev.jump(target, local, p, true, p.sch().Now())
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

// handleBeacon implements T4 at instant now: lc ← max(lc, c + d), with
// the paper's bit-error guard and faulty-peer detection.
func (p *Port) handleBeacon(lsb uint64, now simTime) {
	if p.state != portSynced || p.owdUnits < 0 {
		return
	}
	local := p.dev.gc.at(now)
	c := reconstructNear(local, lsb, p.counterBits())
	target := c + uint64(p.owdUnits)
	p.beaconsReceived++

	offset := int64(local) - int64(target) // == t2 - t1 - OWD (§6.2)

	tel := &p.dev.net.tel
	if p.faulty {
		p.beaconsIgnored++
		return
	}
	cfg := p.cfg()
	if guard := cfg.GuardUnits * int64(p.pd); offset < -guard || offset > guard {
		// Counter off by more than the guard: treat as bit error.
		p.beaconsIgnored++
		if tel.tr.Enabled(telemetry.KindBeaconIgnored) {
			tel.tr.Record(now, telemetry.KindBeaconIgnored, p.tname, offset, 0, "")
		}
		p.recordViolation(now)
		return
	}
	// Bounded-jump admission: a beacon that passes the guard can still
	// ratchet the fabric a few units at a time; the windowed pull budget
	// caps what this peer may drag the counter forward.
	if !p.admit(target, local, false, now) {
		p.beaconsIgnored++
		return
	}
	tel.offBatch.Observe(float64(offset))
	if tel.tr.Enabled(telemetry.KindBeaconRx) {
		tel.tr.Record(now, telemetry.KindBeaconRx, p.tname, offset, 0, "")
	}
	if cfg.Master != "" {
		// §5.4: only the uplink disciplines the counter; it follows the
		// parent in both directions — forward by jumping, backward (a
		// faster local oscillator) by stalling until the parent catches
		// up. Non-uplink ports still observe offsets.
		if p.uplink {
			switch {
			case target > local:
				p.jumps++
				p.dev.jump(target, local, p, false, now)
			case target < local:
				p.dev.stall(local-target, now)
			}
		}
	} else if target > local {
		p.jumps++
		p.dev.jump(target, local, p, false, now)
	}
	if fn := p.dev.net.OnOffset; fn != nil {
		fn(p, now, offset)
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
	if p.admit(target, local, true, p.sch().Now()) && target > local {
		p.jumps++
		p.dev.jump(target, local, p, true, p.sch().Now())
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

// recordViolation counts a guard violation at instant now in a sliding
// window; too many mark the peer faulty.
func (p *Port) recordViolation(now simTime) {
	tick := p.dev.clock.CounterAt(now)
	if tick-p.violationWindow > faultyWindowTicks {
		p.violationWindow, p.violationCount = tick, 0
	}
	p.violationCount++
	tel := &p.dev.net.tel
	tel.violations.Inc()
	if p.violationCount > faultyJumpLimit {
		if !p.faulty {
			tel.faultyPorts.Inc()
			tel.tr.Record(now, telemetry.KindFaultyPeer, p.tname,
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
	return true
}

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
