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
// flights still ahead of it (Refile) onto the per-stage events first.
package link

import (
	"fmt"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
)

// PropagationPerMeter is the signal propagation delay in fiber or twinax:
// about 2/3 the speed of light.
const PropagationPerMeter = 5 * sim.Nanosecond

// DelayForLength converts a cable length to a propagation delay.
func DelayForLength(meters float64) sim.Time {
	return sim.Time(meters * float64(PropagationPerMeter))
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
	// takes the same stages while nothing re-files them). refile,
	// installed by the owner with OnRefile, turns one back into
	// per-stage events.
	fly    [flightCap]Flight
	flyHd  uint8
	flyN   uint8
	refile func(f Flight, txAhead bool)
}

// flightCap bounds the flights one wire carries at once. A launch that
// finds the ring full of flights still short of the far end takes the
// per-stage events instead; the beacon cadence, a JOIN pair and an INIT
// burst need two or three.
const flightCap = 4

// Flight is a block launched past its TX pipeline, the cable and the RX
// pipeline in one step: Ev, the receiver's event at the end of all
// three, is already scheduled. T1 and T2 are the instants the skipped
// stages would have run at: the TX pipeline done (the block enters the
// cable) and the leading edge at the receiver.
type Flight struct {
	Ev     sim.Event
	T1, T2 sim.Time
	Block  phy.Block
}

// New creates a wire. A negative delay is a configuration error (it
// would schedule arrivals in the past), reported rather than panicking
// so CLI-driven configs fail with a message, not a stack trace.
func New(sch *sim.Scheduler, rng *sim.RNG, cfg Config) (*Wire, error) {
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("link: negative delay %v", cfg.Delay)
	}
	if cfg.BER < 0 || cfg.BER >= 1 {
		return nil, fmt.Errorf("link: BER %v outside [0, 1)", cfg.BER)
	}
	w := &Wire{sch: sch, rng: rng, cfg: cfg}
	w.setBER(cfg.BER)
	return w, nil
}

func (w *Wire) setBER(ber float64) {
	w.cfg.BER = ber
	if ber > 0 {
		w.blockErrP = 1 - pow1m(ber, 66)
	} else {
		w.blockErrP = 0
	}
}

// pow1m computes (1-p)^n without math.Pow for tiny p.
func pow1m(p float64, n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 1 - p
	}
	return r
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

// OnRefile installs the owner's way back to per-stage events. Refile
// calls fn for each flight still ahead of its skipped stages, oldest
// first, after cancelling its event: txAhead reports that the TX
// pipeline had not finished yet (T1 not passed), else the block is on
// the cable and counted sent. A wire without it launches no flights.
func (w *Wire) OnRefile(fn func(f Flight, txAhead bool)) { w.refile = fn }

// LaunchActor is SendBlockActor settled at launch: the TX pipeline
// ends at t1, the block reaches the far end at t2 = t1 + Delay() and
// act's event fires rx after that, with the block in its arguments.
// It reports false, launching nothing, when a skipped stage could draw
// on the wire's random stream (injected loss or bit errors) or the
// ring is full: the caller then schedules the stages one by one.
// Flights that have reached the far end leave the ring here, counted
// sent, so the landing event never touches the sender's wire.
func (w *Wire) LaunchActor(b phy.Block, t1, rx sim.Time, act sim.Actor, code uint8) bool {
	if w.lossP != 0 || w.blockErrP != 0 || w.refile == nil {
		return false
	}
	for now := w.sch.Now(); w.flyN > 0 && w.fly[w.flyHd].T2 < now; w.flyN-- {
		w.flyHd = (w.flyHd + 1) % flightCap
		w.sent++
	}
	if w.flyN == flightCap {
		return false
	}
	t2 := t1 + w.cfg.Delay
	f := &w.fly[(w.flyHd+w.flyN)%flightCap]
	f.Ev = w.sch.AtActor(t2+rx, act, code, b.Payload, uint64(b.Sync))
	f.T1, f.T2, f.Block = t1, t2, b
	w.flyN++
	return true
}

// Refile hands every flight whose arrival at the far end (T2) has not
// passed back to the owner (see OnRefile); the others only await their
// landing, which nothing can change any more. Call it before a change
// that a skipped stage would read takes effect: the wire's own delay,
// BER or loss (its setters call it), the sender's clock rate (read by
// the RX pipeline) and the receiver going down (read on arrival). A
// stage at exactly the current instant counts as ahead, as it is for a
// change made by an event scheduled before the launch.
func (w *Wire) Refile() {
	now := w.sch.Now()
	keep := w.flyN
	for keep > 0 && w.fly[(w.flyHd+keep-1)%flightCap].T2 >= now {
		keep--
	}
	for i := keep; i < w.flyN; i++ {
		f := w.fly[(w.flyHd+i)%flightCap]
		f.Ev.Cancel()
		txAhead := f.T1 >= now
		if !txAhead {
			w.sent++
		}
		w.refile(f, txAhead)
	}
	w.flyN = keep
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
