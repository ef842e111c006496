package core

import (
	"fmt"

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
}

func newDevice(n *Network, node topo.Node, offsetPPM float64, rng *sim.RNG) *Device {
	params := xo.Params{
		NominalPeriodFs: n.cfg.Profile.PeriodFs,
		OffsetPPM:       offsetPPM,
		WanderInterval:  n.cfg.WanderInterval,
		WanderStepPPB:   n.cfg.WanderStepPPB,
	}
	clk := xo.NewClock(n.Sch, rng.Fork("xo"), params)
	return &Device{
		net:   n,
		node:  node,
		clock: clk,
		gc:    newUnitCounter(clk, n.cfg.UnitsPerTick),
	}
}

// Name returns the device's topology name (e.g. "s3").
func (d *Device) Name() string { return d.node.Name }

// ID returns the device's topology node ID.
func (d *Device) ID() int { return d.node.ID }

// Kind returns whether the device is a host NIC or a switch.
func (d *Device) Kind() topo.Kind { return d.node.Kind }

// Ports returns the device's DTP ports.
func (d *Device) Ports() []*Port { return d.ports }

// Clock exposes the device oscillator (read-only use intended).
func (d *Device) Clock() *xo.Clock { return d.clock }

// GlobalCounter returns the DTP global counter at the current time.
func (d *Device) GlobalCounter() uint64 { return d.gc.at(d.net.Sch.Now()) }

// GlobalCounterAt returns the DTP global counter at time t.
func (d *Device) GlobalCounterAt(t simTime) uint64 { return d.gc.at(t) }

// PPM returns the device oscillator's current frequency offset.
func (d *Device) PPM() float64 { return d.clock.PPM() }

// jump requests a forward adjustment of the global counter to target
// (Algorithm 1 T4 / Algorithm 2 T5). If join is set, the adjustment came
// from a BEACON-JOIN and is propagated to every other active port so the
// whole subnet converges to the new maximum (§3.2 "Network dynamics").
// The adjustment lands at once: the 4TD accounting (BoundUnits, the
// auditor) charges the §4.3 max circuit no latency, so neither does the
// model.
func (d *Device) jump(target uint64, from *Port, join bool) {
	now := d.net.Sch.Now()
	cur := d.gc.at(now)
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
