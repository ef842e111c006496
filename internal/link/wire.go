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
func (w *Wire) Stats() (sent, corrupted uint64) { return w.sent, w.corrupted }

// Dropped returns how many blocks/payloads were lost to injected loss.
func (w *Wire) Dropped() uint64 { return w.dropped }
