// Package link models the physical medium between two ports: constant
// propagation delay derived from cable length, plus optional bit-error
// injection at a configurable bit error rate (BER).
//
// The paper assumes (§3.1) that cable length — and hence propagation
// delay — is bounded: ~5 ns/m of optic fiber, at most 1000 m inside a
// datacenter. The wire is the only thing between two PHYs, which is why
// the delay between peers is deterministic once measured.
//
// Every impairment parameter (delay, BER, block loss) is runtime-mutable
// so fault-injection campaigns (internal/chaos) can degrade a live link:
// BER bursts, permanent BER degradation, grey failures (one-direction
// loss, growing delay asymmetry). Mutations affect blocks sent after the
// call; blocks already in flight keep the delay they were launched with,
// exactly as a physical cable would behave.
//
// A clean wire also carries flights (LaunchActor): blocks whose TX
// pipeline, propagation and RX pipeline are settled at launch, so the
// receiver's event is scheduled at once and the stages between are never
// run as events. Anything that could change a settled stage re-files the
// flights still ahead of it (Refile, Unsettle) onto the per-stage events
// first.
package link

import (
	"fmt"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
)

// propagationPerMeter is the signal propagation delay in fiber or twinax:
// about 2/3 the speed of light.
const propagationPerMeter = 5 * sim.Nanosecond

// DelayForLength converts a cable length to a propagation delay.
func DelayForLength(meters float64) sim.Time {
	return sim.Time(meters * float64(propagationPerMeter))
}

// Config describes one direction of a physical link.
type Config struct {
	// Delay is the one-way propagation delay.
	Delay sim.Time
	// BER is the per-bit error probability. The 802.3 objective is
	// 1e-12; tests crank this up to exercise DTP's failure handling.
	BER float64
}

// Wire is one direction of a physical link. Serialization time is the
// sender's responsibility (it depends on what is being sent); the wire
// adds propagation delay, bit errors, and (under injected grey failure)
// block loss only.
type Wire struct {
	sch *sim.Scheduler
	rng *sim.RNG
	cfg Config

	// blockErrP is the probability that a 66-bit block suffers at least
	// one bit error: 1-(1-BER)^66 ≈ 66*BER for small BER.
	blockErrP float64
	// lossP is the probability a block (or frame) vanishes entirely —
	// a grey failure, not a property of healthy cables.
	lossP float64

	sent      uint64
	corrupted uint64
	dropped   uint64

	// fly is a ring of the flights launched and not yet retired, in
	// launch order (which is also arrival order: every flight of a wire
	// takes the same stages while nothing re-files them). land and
	// refile, installed by the owner with OnFlights, schedule a flight's
	// event at launch and turn one back into per-stage events.
	fly    [flightCap]Flight
	flyHd  uint8
	flyN   uint8
	land   func(b phy.Block, t3 sim.Time, k sim.Key) (sim.Event, bool)
	refile func(f Flight, from Stage) sim.Event
}

// flightCap bounds the flights one wire carries at once. A launch that
// finds the ring full of flights still short of the far end takes the
// per-stage events instead; the beacon cadence, a JOIN pair and an INIT
// burst need two or three.
const flightCap = 4

// Flight is a block launched past its TX pipeline, the cable and the RX
// pipeline in one step. T1, T2 and T3 are the instants the skipped
// stages would have run at: the TX pipeline done (the block enters the
// cable), the leading edge at the receiver, and the RX pipeline done —
// the landing at the receiver's clock-domain crossing. Key is the
// landing's place among the events due at T3, reserved at launch. Ev is
// already scheduled: the landing itself, or, when Settled, what the
// landing would have scheduled (the receiver knew it at launch), so the
// landing is skipped too.
type Flight struct {
	Ev         sim.Event
	T1, T2, T3 sim.Time
	Key        sim.Key
	Block      phy.Block
	Settled    bool
}

// ahead reports whether a stage at t is still ahead at now. A stage at
// exactly now counts as ahead, as it is for a change made by an event
// scheduled before the launch.
func ahead(t, now sim.Time) bool { return t >= now }

// landed reports whether nothing can change the flight any more: it has
// reached the far end and, if settled, its landing has passed too.
func (f *Flight) landed(now sim.Time) bool {
	return !ahead(f.T2, now) && !(f.Settled && ahead(f.T3, now))
}

// Stage names the first skipped stage still ahead of a flight that is
// handed back to its owner (OnFlights).
type Stage uint8

const (
	// TxAhead: the TX pipeline has not finished (T1 ahead).
	TxAhead Stage = iota
	// OnCable: the block is on the cable, counted sent (T2 ahead).
	OnCable
	// Landing: the landing at T3, at the flight's Key, for a settled
	// flight whose receiver-side inputs are about to change.
	Landing
)

// New creates a wire. A negative delay is a configuration error (it
// would schedule arrivals in the past), reported rather than panicking
// so CLI-driven configs fail with a message, not a stack trace.
func New(sch *sim.Scheduler, rng *sim.RNG, cfg Config) (*Wire, error) {
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("link: negative delay %v", cfg.Delay)
	}
	if !(cfg.BER >= 0 && cfg.BER < 1) { // written so that NaN fails too
		return nil, fmt.Errorf("link: BER %v outside [0, 1)", cfg.BER)
	}
	w := &Wire{sch: sch, rng: rng, cfg: cfg}
	w.setBER(cfg.BER)
	return w, nil
}

// setBER sets the bit error rate and, from it, the chance that a 66-bit
// block arrives corrupted: 1 - (1-ber)^66, multiplied out rather than
// through math.Pow for tiny ber.
func (w *Wire) setBER(ber float64) {
	w.cfg.BER = ber
	intact := 1.0
	for i := 0; ber > 0 && i < 66; i++ {
		intact *= 1 - ber
	}
	w.blockErrP = 1 - intact
}

// Delay returns the propagation delay.
func (w *Wire) Delay() sim.Time { return w.cfg.Delay }

// BER returns the current per-bit error probability.
func (w *Wire) BER() float64 { return w.cfg.BER }

// SetDelay changes the propagation delay for subsequently sent blocks
// (a grey failure: the cable's electrical length drifting, or a rogue
// component adding latency in one direction). Negative delays are
// rejected.
func (w *Wire) SetDelay(d sim.Time) error {
	if d < 0 {
		return fmt.Errorf("link: negative delay %v", d)
	}
	w.Refile()
	w.cfg.Delay = d
	return nil
}

// SetBER changes the bit error rate for subsequently sent blocks (BER
// burst or permanent degradation). Values outside [0, 1) are clamped.
func (w *Wire) SetBER(ber float64) {
	if ber < 0 {
		ber = 0
	}
	if ber >= 1 {
		ber = 1 - 1e-12
	}
	w.Refile()
	w.setBER(ber)
}

// LossP returns the current whole-block loss probability.
func (w *Wire) LossP() float64 { return w.lossP }

// SetLossP changes the whole-block loss probability for subsequently
// sent blocks (one-direction grey failure). Clamped to [0, 1].
func (w *Wire) SetLossP(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	w.Refile()
	w.lossP = p
}

// SendBlockActor transmits a 66-bit PCS block: the receiving actor's
// event fires after the propagation delay with the (possibly corrupted)
// block, or never if the block was lost to an injected grey failure.
// The block rides in the event payload (a = 64 payload bits, b = sync
// byte), so the beacon hot path captures no closure.
func (w *Wire) SendBlockActor(b phy.Block, act sim.Actor, code uint8) {
	w.sent++
	if w.lossP > 0 && w.rng.Bool(w.lossP) {
		w.dropped++
		return
	}
	if w.blockErrP > 0 && w.rng.Bool(w.blockErrP) {
		b = w.flipRandomBit(b)
		w.corrupted++
	}
	w.sch.AfterActor(w.cfg.Delay, act, code, b.Payload, uint64(b.Sync))
}

// OnFlights installs what flights need from the wire's owner. land
// schedules a launched block's event: its landing at the receiver's
// clock-domain crossing at t3, at key k, or — reporting settled — what
// that landing would schedule, when the receiver can tell at launch.
// refile schedules the per-stage event a flight handed back resumes at
// (see Refile and Unsettle; the flight's Ev is cancelled first). A wire
// without them launches no flights.
func (w *Wire) OnFlights(land func(b phy.Block, t3 sim.Time, k sim.Key) (ev sim.Event, settled bool), refile func(f Flight, from Stage) sim.Event) {
	w.land, w.refile = land, refile
}

// LaunchActor is SendBlockActor settled at launch: the TX pipeline
// ends at t1, the block reaches the far end at t2 = t1 + Delay() and
// lands rx after that, at t3, where the owner's land hook takes it (see
// OnFlights). It reports false, launching nothing, when a skipped stage
// could draw on the wire's random stream (injected loss or bit errors)
// or the ring is full: the caller then schedules the stages one by one.
// Landed flights leave the ring here, counted sent, so no event of the
// receiver touches the sender's wire.
func (w *Wire) LaunchActor(b phy.Block, t1, rx sim.Time) bool {
	if w.lossP != 0 || w.blockErrP != 0 || w.land == nil {
		return false
	}
	for now := w.sch.Now(); w.flyN > 0 && w.fly[w.flyHd].landed(now); w.flyN-- {
		w.flyHd = (w.flyHd + 1) % flightCap
		w.sent++
	}
	if w.flyN == flightCap {
		return false
	}
	t2 := t1 + w.cfg.Delay
	t3 := t2 + rx
	f := &w.fly[(w.flyHd+w.flyN)%flightCap]
	f.Key = w.sch.Reserve()
	f.Ev, f.Settled = w.land(b, t3, f.Key)
	f.T1, f.T2, f.T3, f.Block = t1, t2, t3, b
	w.flyN++
	return true
}

// Refile hands every flight whose arrival at the far end (T2) has not
// passed back to the owner, at TxAhead or OnCable (see OnFlights); the
// others only await their landing, which nothing on the sender's side
// can change any more. Call it before a change that a skipped stage
// before T2 would read takes effect: the wire's own delay, BER or loss
// (its setters call it), the sender's clock rate (read by the RX
// pipeline) and the receiver going down (read on arrival).
func (w *Wire) Refile() {
	now := w.sch.Now()
	keep := w.flyN
	for keep > 0 && ahead(w.fly[(w.flyHd+keep-1)%flightCap].T2, now) {
		keep--
	}
	for i := keep; i < w.flyN; i++ {
		f := w.fly[(w.flyHd+i)%flightCap]
		f.Ev.Cancel()
		from := TxAhead
		if !ahead(f.T1, now) {
			from = OnCable
			w.sent++
		}
		w.refile(f, from)
	}
	w.flyN = keep
}

// Unsettle hands the landing of every settled flight whose T3 has not
// passed back to the owner (Landing): the receiver's event was worked
// out at launch from inputs that are about to change, so the landing
// runs at T3 after all, in the place its Key reserved. Call it before a
// change that the receiver's clock-domain crossing reads takes effect:
// the receiver's clock rate and the receiver going down.
func (w *Wire) Unsettle() {
	now := w.sch.Now()
	for i := uint8(0); i < w.flyN; i++ {
		f := &w.fly[(w.flyHd+i)%flightCap]
		if f.Settled && ahead(f.T3, now) {
			f.Ev.Cancel()
			f.Settled = false
			f.Ev = w.refile(*f, Landing)
		}
	}
}

// SetFlightEvent makes ev the event of the flight reserved at seq, if it
// is still on the wire: the owner has scheduled, after all, work it had
// kept out of the scheduler (the zero Ev its land hook returned), and
// Refile and Unsettle must cancel that event.
func (w *Wire) SetFlightEvent(seq uint64, ev sim.Event) {
	for i := uint8(0); i < w.flyN; i++ {
		if f := &w.fly[(w.flyHd+i)%flightCap]; f.Key.Seq == seq {
			f.Ev = ev
			return
		}
	}
}

// flipRandomBit flips one uniformly random bit of the 66 on the wire:
// 2 sync bits or 64 payload bits.
func (w *Wire) flipRandomBit(b phy.Block) phy.Block {
	i := w.rng.IntN(66)
	if i < 2 {
		b.Sync ^= 1 << i
	} else {
		b.Payload ^= 1 << (i - 2)
	}
	return b
}

// Send transmits an opaque payload (e.g. a full Ethernet frame whose
// per-bit corruption is handled by the frame's own FCS model): deliver
// fires after the propagation delay, or never under injected loss.
func (w *Wire) Send(deliver func()) {
	w.sent++
	if w.lossP > 0 && w.rng.Bool(w.lossP) {
		w.dropped++
		return
	}
	w.sch.After(w.cfg.Delay, deliver)
}

// Stats returns the number of blocks/payloads sent and blocks corrupted.
// A flight counts as sent once its TX pipeline has finished.
func (w *Wire) Stats() (sent, corrupted uint64) {
	sent = w.sent
	now := w.sch.Now()
	for i := uint8(0); i < w.flyN && w.fly[(w.flyHd+i)%flightCap].T1 <= now; i++ {
		sent++
	}
	return sent, w.corrupted
}

// Dropped returns how many blocks/payloads were lost to injected loss.
func (w *Wire) Dropped() uint64 { return w.dropped }
