package core

import (
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/telemetry"
)

// Byzantine-hardened mode (ROADMAP Open item 4). Plain DTP adopts
// max(local, remote) unconditionally — maximally trusting, so a single
// device reporting an inflated counter poisons the entire fabric and
// silently invalidates the 4TD bound. Hardened mode layers three
// defenses over Algorithms 1/2 without touching the fault-free fast
// path:
//
//  1. Bounded-jump admission: per link session, a remote counter may
//     pull the local counter forward only a bounded amount — at most
//     the admission slack per message, and at most slack plus a
//     ~244 ppm budget accumulated across a sliding window of the
//     device's free-running tick clock. Honest peers tick at ±100 ppm;
//     anything pulling faster is lying. The yardstick is the raw
//     oscillator, never the (jumpable) global counter, so a compliant
//     ratchet that drags the counter cannot drag the budget with it.
//  2. Quarantine + re-INIT escape hatch: a peer that keeps failing
//     admission is quarantined — nothing it says is trusted, its link
//     leaves the audited active set — and after a cooldown the port
//     re-enters through INIT, so an honestly restarted peer rejoins.
//  3. Quorum combiner: a fresh session's first message may legitimately
//     carry a huge advance (BEACON-JOIN pulling a restarted device up
//     to the fabric maximum), so it cannot be rate-limited. Instead,
//     large session-initial adoptions need agreement from a quorum of
//     the device's other synced ports. In a tree a Byzantine peer is
//     the sole source for its own subtree and can never marshal a
//     second witness; a restarted device has no synced witnesses and
//     is admitted unchecked — it knows its own counter is stale.

// Hardened mode has one knob, Config.Hardened; its parameters are fixed.
// Slack 16 units ≈ 103 ns at 10 GbE: twice the bit-error guard of
// headroom over the per-beacon noise floor, while keeping any single
// admitted step under the 4TD bound of tree-scale topologies. Rejections
// quarantine fast (the fabric is exposed while a liar keeps probing),
// and the cooldown is short enough that a wrongly quarantined peer
// always rejoins on the first retry.
const (
	// admitSlackUnits is the constant slack of the admission pull
	// budget: it absorbs the measurement noise (CDC dither, guard-band
	// offsets) riding on honest forward adoptions. Each message may
	// pull the local counter at most admitSlackUnits forward, and the
	// total pull a peer is granted within a faultyWindowTicks window is
	// admitSlackUnits + elapsed>>12, where elapsed is measured on the
	// device's free-running tick clock (the shift is a ~244 ppm budget
	// covering the 802.3 ±100 ppm oscillators on both ends plus
	// wander). Budgeting the pull against the unjumpable oscillator —
	// never the global counter — is what catches ratchets whose every
	// step stays under naive per-message thresholds. Like the bit-error
	// guard, the slack scales with the port's cycle.
	admitSlackUnits = 16

	// quarantineRejectLimit is how many admission rejections within
	// faultyWindowTicks a synced port tolerates before quarantining its
	// peer. quarantineCooldownTicks is how long the quarantine lasts
	// before the port demotes itself to INIT and retries — the escape
	// hatch through which an honestly restarted peer rejoins. The
	// quarantined peer free-runs, so its counter diverges from the
	// fabric at up to 2*ppmRange; because
	// quarantineCooldownTicks * 2*ppmRange*1e-6 <= admitSlackUnits
	// (60k ticks * 200 ppm = 12 units; TestQuarantineCooldownInsideSlack),
	// the post-cooldown session's first message is always within the
	// admission slack, whichever side drifted ahead.
	quarantineRejectLimit   = 4
	quarantineCooldownTicks = 60_000

	// quorumPorts is the number of synced ports (proposer included) that
	// must agree before a device adopts a session-initial advance larger
	// than admitSlackUnits. Devices with fewer synced witness ports than
	// the quorum — freshly restarted devices, single-port hosts — admit
	// unchecked: they have no better information than their peer.
	quorumPorts = 2
)

// admitBudget is the pull-budget inequality: the units a peer has
// pulled this port's counter forward within the current window
// (candidate lead included) are admissible while they do not exceed the
// constant slack plus a ~244 ppm oscillator budget over the window's
// locally elapsed units (elapsed >> 12; the 802.3 bound allows ±100 ppm
// per end). All arithmetic is int64 on mod-2^64 differences, so the
// rule stays exact across counter wraparound and far beyond the 2^53
// float64-precision boundary.
func admitBudget(pulled, elapsed, slack int64) (ok bool, allowance int64) {
	if elapsed < 0 {
		elapsed = 0
	}
	allowance = slack + elapsed>>12
	return pulled <= allowance, allowance
}

// admitSlack is the constant admission slack scaled to this port's
// cycle, like the bit-error guard.
func (p *Port) admitSlack() int64 {
	return admitSlackUnits * int64(p.pd)
}

// admitTarget gates a remote-implied counter value (target, at local
// counter value local) through bounded-jump admission. Algorithm 2
// adopts only forward values, so admission budgets exactly the
// adoptable quantity: the message's lead over the local counter. A
// value at or behind the local counter cannot move it and always
// passes; a session's first forward value beyond the slack is the
// BEACON-JOIN equalization and is vetted by the quorum combiner; every
// later message may pull at most the slack at once and at most the
// windowed pull budget in aggregate. Returns false — after recording
// the rejection — when the value must not be adopted.
//
// The window is measured on the device's free-running tick clock, so a
// "compliant" ratchet — lies of at most the slack, each adopted, each
// re-measured against the freshly poisoned counter — still exhausts
// the budget and is caught: adopted jumps never advance the yardstick.
// The flip side is that a mid-session JOIN carrying a far-ahead counter
// (a long-diverged partition healing) is refused — hardened mode fails
// secure there and heals through quarantine, re-INIT and the quorum
// combiner instead.
func (p *Port) admitTarget(target, local uint64, join bool) bool {
	lead := int64(target - local)
	slack := p.admitSlack()
	if !p.admitValid {
		if lead > slack && !p.dev.quorumAgrees(p, target, local) {
			p.rejectTarget(lead, slack, join)
			return false
		}
		p.admitValid = true
		p.pullWindow = p.dev.clock.Counter()
		p.pulledUnits = 0
		return true
	}
	if lead <= 0 {
		return true
	}
	if lead > slack {
		p.rejectTarget(lead, slack, join)
		return false
	}
	cfg := p.cfg()
	tick := p.dev.clock.Counter()
	if tick-p.pullWindow > faultyWindowTicks {
		p.pullWindow, p.pulledUnits = tick, 0
	}
	elapsed := int64(tick-p.pullWindow) * int64(cfg.UnitsPerTick)
	ok, allowance := admitBudget(p.pulledUnits+lead, elapsed, slack)
	if !ok {
		p.rejectTarget(p.pulledUnits+lead, allowance, join)
		return false
	}
	p.pulledUnits += lead
	return true
}

// admit is the one gate in front of every counter adoption — beacon,
// JOIN, or a JOIN that waited for the delay measurement: plain mode
// admits everything; hardened mode runs bounded-jump admission and
// records what it admits as this port's quorum vote.
func (p *Port) admit(target, local uint64, join bool) bool {
	if !p.cfg().Hardened {
		return true
	}
	ok := p.admitTarget(target, local, join)
	if ok {
		p.noteTarget(target, local)
	}
	return ok
}

// noteTarget records an admitted remote counter observation; it is this
// port's vote in the quorum combiner.
func (p *Port) noteTarget(target, local uint64) {
	p.lastTarget, p.lastTargetLocal, p.haveTarget = target, local, true
}

// quorumAgrees is the Marzullo-style multi-port combiner: before the
// device adopts a session-initial advance beyond the admission slack
// proposed on port from, at least quorumPorts synced ports (the
// proposer included) must place the fabric counter near the proposed
// target. Each witness port's latest admitted target, extrapolated at
// the local rate, is its estimate; it agrees when the estimate reaches
// target minus the slack band. With fewer witnesses than the quorum
// (restarted devices, single-port hosts) the advance is admitted
// unchecked — the device has no better information than its peer.
func (d *Device) quorumAgrees(from *Port, target, local uint64) bool {
	band := from.admitSlack()
	agree, voters := 1, 1 // the proposer votes for its own value
	for _, p := range d.ports {
		if p == from || p.state != portSynced || !p.haveTarget {
			continue
		}
		voters++
		est := p.lastTarget + (local - p.lastTargetLocal)
		if int64(est-target) >= -band {
			agree++
		}
	}
	if voters < quorumPorts {
		return true
	}
	return agree >= quorumPorts
}

// rejectTarget records a bounded-jump admission failure and, past
// quarantineRejectLimit rejections within the faultyWindowTicks sliding
// window, quarantines the port.
func (p *Port) rejectTarget(advance, allowance int64, join bool) {
	tel := &p.dev.net.tel
	tel.rejections.Inc()
	p.dev.net.rejectedTotal++
	detail := "beacon"
	if join {
		detail = "join"
	}
	tel.tr.Record(p.sch().Now(), telemetry.KindCounterRejected, p.tname,
		advance, allowance, detail)
	tick := p.dev.clock.Counter()
	if tick-p.rejectWindow > faultyWindowTicks {
		p.rejectWindow, p.rejectCount = tick, 0
	}
	p.rejectCount++
	if p.rejectCount >= quarantineRejectLimit {
		p.quarantine()
	}
}

// quarantine pulls a synced port out of the fabric: its peer keeps
// failing admission, so nothing it says is trusted until the cooldown
// expires and the port re-enters through INIT. A quarantined port stops
// beaconing, ignores every arriving message (even INITs — answering
// would let the suspect peer re-arm a session early), and reports its
// link unsynced, which drops it from the auditor's active set so
// quarantined paths never contribute to BFS bounds.
func (p *Port) quarantine() {
	if p.state != portSynced {
		return
	}
	tel := &p.dev.net.tel
	tel.quarantines.Inc()
	p.dev.net.quarantineTotal++
	tel.tr.Record(p.sch().Now(), telemetry.KindPortQuarantined, p.tname,
		int64(p.rejectCount), p.owdUnits, "")
	p.endSession(portQuarantined)
	p.rejectCount = 0 // spent: the next session earns its own quarantine
	cool := p.dev.tickDur(quarantineCooldownTicks)
	p.quarEvent = p.sch().After(cool, p.releaseQuarantine)
}

// releaseQuarantine is the escape hatch: after the cooldown the port
// demotes itself to INIT and re-measures the delay. An honestly
// restarted peer passes the fresh session's admission and rejoins; a
// still-lying peer earns the next quarantine within a handful of
// rejected messages.
func (p *Port) releaseQuarantine() {
	if p.state == portQuarantined {
		p.demote(demoteQuarantine, "quarantine_cooldown")
	}
}

// --- Adversarial hooks (chaos use only) --------------------------------

// SetLieUnits installs (or clears, with 0) an adversarial inflation of
// every counter value this device transmits in BEACON, BEACON-MSB and
// BEACON-JOIN messages. The device's real counter stays honest — the
// lie exists only on the wire, which is exactly the Byzantine failure
// mode hardened mode defends against. INIT traffic is untouched: echo
// pairing must keep working or the fault degenerates into a dead link.
func (d *Device) SetLieUnits(u uint64) { d.lieUnits = u }

// LieUnits returns the device's current outgoing counter inflation.
func (d *Device) LieUnits() uint64 { return d.lieUnits }

// BroadcastJoin announces the device's (possibly inflated) counter with
// a BEACON-MSB + BEACON-JOIN pair on every synced port — what a
// Byzantine device does to push a lie through the otherwise unguarded
// JOIN path, and what hardened admission must stop.
func (d *Device) BroadcastJoin() {
	for _, p := range d.ports {
		if p.state == portSynced {
			p.sendJoinPair()
		}
	}
}

// InjectSpoofedBeacon models an on-path attacker forging a BEACON with
// an arbitrary counter value toward this port: the message enters the
// receive path exactly as a wire arrival would, RX pipeline and CDC
// crossing included.
func (p *Port) InjectSpoofedBeacon(value uint64) {
	codec := p.codec()
	m := phy.Message{Type: phy.MsgBeacon, Payload: value & codec.CounterMask()}
	if p.fragmented {
		for _, f := range phy.FragmentMessage(codec, m) {
			p.onWireArrival(phy.EmbedFragment(f))
		}
		return
	}
	p.onWireArrival(codec.EmbedMessage(m))
}
