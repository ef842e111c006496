package core

import (
	"fmt"

	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
	"github.com/dtplab/dtp/internal/xo"
)

// Device is a DTP-enabled network device: a NIC or a switch. One
// oscillator drives every port of the device (commodity switches feed all
// ports from a single clock source, §2.5), and the device maintains the
// global counter of Algorithm 2: it advances every tick and is the max of
// all port-local counters.
//
// Because a counter adjustment is always max(...), and every port of the
// device shares the oscillator, the per-port local counters and the
// global counter collapse into a single monotone counter that any port
// may push forward.
type Device struct {
	net   *Network
	node  topo.Node
	clock *xo.Clock
	gc    *unitCounter
	ports []*Port

	// lieUnits is the adversarial outgoing-counter inflation installed
	// by chaos liar/overclaim faults (see harden.go SetLieUnits): every
	// beacon and JOIN this device transmits carries gc + lieUnits while
	// the real counter stays honest.
	lieUnits uint64

	// restarts counts Restart calls so observers polling the device
	// (notably the daemon) can detect a counter reset and discard state
	// anchored to the pre-crash counter domain.
	restarts uint64

	// in is the inbox (see file): a ring of settled arrivals, inN of
	// them from inHd on, sorted by (time, Key). Its length is fixed when
	// the device's ports are known (inboxPerPort each), or zero.
	in        []arrival
	inHd, inN int
	inboxed   uint64 // arrivals ever filed, for the engine budget
}

// arrival is a settled BEACON or BEACON-MSB for port p, filed in its
// device's inbox instead of the scheduler: the evSettled event it
// replaces would have dispatched at (at, key).
type arrival struct {
	at      simTime
	key     sim.Key
	p       *Port
	payload uint64
	typ     phy.MsgType
}

// inboxPerPort sizes a device's inbox: a wire carries at most four
// flights, a beacon interval is longer than a clean flight, and every
// port event settles the inbox, so arrivals rarely queue up behind a
// port's next one. A full inbox costs an event, not an arrival.
const inboxPerPort = 2

// file puts a settled arrival in the inbox in (time, Key) order,
// reporting false — filing nothing — when it may not: the inbox is full
// (or has no room at all: NewNetwork leaves it empty where every arrival
// must stay an event), the port's arrivals must stay events (see
// Port.setLoad), or the message is not a BEACON or BEACON-MSB (the
// others schedule when processed, which only an event may).
//
// An inbox arrival changes nothing but its own device, and only when it
// is applied: process at the arrival's instant, by settle. Everything
// that reads or changes the device settles first, and settle applies
// exactly the arrivals the scheduler would already have dispatched
// (sim.Scheduler.Due), so each lands in the place evSettled held and
// every trajectory is the event's.
func (d *Device) file(a arrival) bool {
	if d.inN == len(d.in) || a.p.noInbox || a.typ != phy.MsgBeacon && a.typ != phy.MsgBeaconMSB {
		return false
	}
	i := d.inN
	for ; i > 0; i-- {
		prev := d.slot(i - 1)
		if prev.at < a.at || prev.at == a.at && prev.key.Less(a.key) {
			break
		}
		*d.slot(i) = *prev
	}
	*d.slot(i) = a
	d.inN++
	d.inboxed++
	return true
}

// slot returns the inbox ring's i-th arrival from the head.
func (d *Device) slot(i int) *arrival {
	j := d.inHd + i
	if j >= len(d.in) {
		j -= len(d.in)
	}
	return &d.in[j]
}

// settle applies every inbox arrival that is due: it is called before
// anything reads or changes the device's protocol state (a port event,
// which every event core schedules is; the exported readers; link and
// device lifecycle; rate changes; the telemetry flush; the end of a
// run).
func (d *Device) settle() {
	if d.inN != 0 {
		d.applyDue()
	}
}

// applyDue is settle's loop. Each arrival leaves the inbox before it is
// processed, at its own instant.
func (d *Device) applyDue() {
	sch := d.net.Sch
	for d.inN != 0 {
		a := d.in[d.inHd]
		if !sch.Due(a.at, a.key) {
			return
		}
		if d.inHd++; d.inHd == len(d.in) {
			d.inHd = 0
		}
		d.inN--
		a.p.process(phy.Message{Type: a.typ, Payload: a.payload}, a.at)
	}
}

// unfile takes the arrival reserved at seq out of the inbox, if it is
// there (see Port.refile).
func (d *Device) unfile(seq uint64) {
	for i := 0; i < d.inN; i++ {
		if d.slot(i).key.Seq != seq {
			continue
		}
		for ; i+1 < d.inN; i++ {
			*d.slot(i) = *d.slot(i + 1)
		}
		d.inN--
		return
	}
}

// evict turns every arrival for port p waiting in the inbox back into
// events (see Port.setLoad): a flight whose landing is still ahead lands
// at its crossing again (link.Wire.Unsettle), and one that has landed
// becomes the evSettled event filing it replaced, at its instant and key.
func (d *Device) evict(p *Port) {
	d.settle()
	p.peer.wire.Unsettle()
	for i := 0; i < d.inN; {
		a := d.slot(i)
		if a.p != p {
			i++
			continue
		}
		p.sch().AtActorKey(a.at, a.key, p, evSettled, a.payload, uint64(a.typ))
		d.unfile(a.key.Seq)
	}
}

func newDevice(n *Network, node topo.Node, offsetPPM float64, rng *sim.RNG) *Device {
	params := xo.Params{
		NominalPeriodFs: n.cfg.Profile.PeriodFs,
		OffsetPPM:       offsetPPM,
		WanderInterval:  n.cfg.WanderInterval,
		WanderStepPPB:   n.cfg.WanderStepPPB,
	}
	clk := xo.NewClock(n.Sch, rng.Fork("xo"), params)
	d := &Device{
		net:   n,
		node:  node,
		clock: clk,
		gc:    newUnitCounter(clk, n.cfg.UnitsPerTick),
	}
	clk.OnRateChange(d.refileFlights)
	return d
}

// refileFlights runs before the oscillator changes rate. The inbox is
// settled first: an arrival is applied on the tick arithmetic of its own
// instant. A flight's RX pipeline runs at its sender's rate, so every
// flight this device sent that has not reached its receiver goes back to
// the five-event chain; and a settled flight toward this device was put
// on a tick of the old rate, so every one that has not landed lands at
// its crossing again.
func (d *Device) refileFlights() {
	d.settle()
	for _, p := range d.ports {
		p.wire.Refile()
		p.peer.wire.Unsettle()
	}
}

// Name returns the device's topology name (e.g. "s3").
func (d *Device) Name() string { return d.node.Name }

// ID returns the device's topology node ID.
func (d *Device) ID() int { return d.node.ID }

// Ports returns the device's DTP ports.
func (d *Device) Ports() []*Port { return d.ports }

// Clock exposes the device oscillator (read-only use intended).
func (d *Device) Clock() *xo.Clock { return d.clock }

// GlobalCounter returns the DTP global counter at the current time.
func (d *Device) GlobalCounter() uint64 { return d.GlobalCounterAt(d.net.Sch.Now()) }

// GlobalCounterAt returns the DTP global counter at time t, as the
// device's state stands now. It is the one read of the counter from
// outside the protocol: it settles the inbox to the present, not to t.
func (d *Device) GlobalCounterAt(t simTime) uint64 {
	d.settle()
	return d.gc.at(t)
}

// jump requests a forward adjustment at instant now of the global
// counter from cur, its value then as the caller read it, to target
// (Algorithm 1 T4 / Algorithm 2 T5). If join is set, the adjustment came from a
// BEACON-JOIN and is propagated to every other active port so the whole
// subnet converges to the new maximum (§3.2 "Network dynamics").
// The adjustment lands at once: the 4TD accounting (BoundUnits, the
// auditor) charges the §4.3 max circuit no latency, so neither does the
// model.
func (d *Device) jump(target, cur uint64, from *Port, join bool, now simTime) {
	if target <= cur {
		return
	}
	d.gc.setAt(target, now)
	tel := &d.net.tel
	tel.jumpsN++
	if tel.tr.Enabled(telemetry.KindCounterJump) {
		joinFlag := int64(0)
		if join {
			joinFlag = 1
		}
		tel.tr.Record(now, telemetry.KindCounterJump, from.tname,
			int64(target-cur), joinFlag, "")
	}
	if join {
		for _, p := range d.ports {
			if p != from && p.state == portSynced {
				p.sendJoinPair()
			}
		}
	}
}

// stall holds the global counter at its current value until `excess`
// units have been absorbed (§5.4): the device's oscillator outran its
// master, so it loses exactly the surplus ticks and then resumes.
func (d *Device) stall(excess uint64, at simTime) {
	d.gc.stallBy(excess, at)
	tel := &d.net.tel
	tel.stalls.Inc()
	if tel.tr.Enabled(telemetry.KindCounterStall) {
		tel.tr.Record(at, telemetry.KindCounterStall, d.node.Name, int64(excess), 0, "")
	}
}

// Crash models an abrupt device power loss: every port goes down — on
// both ends, because the peer's PHY loses signal the instant the lasers
// die — and all protocol state (measured delays, MSB caches, beacon
// schedules) is discarded. The counter content is lost too, but the
// register is only visibly reset by Restart; a crashed device has no
// observable counter.
func (d *Device) Crash() {
	d.settle()
	tel := &d.net.tel
	tel.crashes.Inc()
	tel.tr.Record(d.net.Sch.Now(), telemetry.KindDeviceCrash, d.node.Name, 0, 0, "")
	for _, p := range d.ports {
		p.peer.Down()
		p.Down()
	}
}

// Restart powers a crashed device back on: the counter restarts from
// zero and every link comes back up, re-entering through INIT exactly
// like a cold boot. The JOIN machinery then pulls the device (and its
// now-lagging counter) up to the network maximum (§3.2 "Network
// dynamics").
func (d *Device) Restart() {
	d.settle()
	now := d.net.Sch.Now()
	d.restarts++
	d.gc.resetAt(now)
	tel := &d.net.tel
	tel.tr.Record(now, telemetry.KindDeviceRestart, d.node.Name, 0, 0, "")
	for _, p := range d.ports {
		p.Up()
		p.peer.Up()
	}
}

// Restarts returns how many times this device has been power-cycled
// via Restart. Each restart resets the counter domain, so consumers
// holding state anchored to the old counter (the daemon's calibration
// history) compare this against a remembered value to know when to
// start over.
func (d *Device) Restarts() uint64 { return d.restarts }

// tickDur converts n of this device's clock ticks to simulated time at
// the oscillator's current rate.
func (d *Device) tickDur(n int) simTime {
	return sim.Femto(int64(n) * d.clock.PeriodFs())
}

// PortTo returns the port connected to the named peer device.
func (d *Device) PortTo(peer string) (*Port, error) {
	for _, p := range d.ports {
		if p.peer != nil && p.peer.dev.Name() == peer {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: %s has no port to %s", d.Name(), peer)
}
