package core

import (
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// instrumentedPair builds a two-host network with metrics and tracing.
func instrumentedPair(t *testing.T, seed uint64) (*sim.Scheduler, *Network, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	sch := sim.NewScheduler()
	reg := telemetry.New()
	tr := telemetry.NewTracer(1 << 14)
	n, err := NewNetwork(sch, seed, topo.Pair(), DefaultConfig(), WithTelemetry(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	return sch, n, reg, tr
}

// TestBeaconLossDemotesPort: a grey failure that silences one direction
// (the link still reports "up") must not leave the starved port
// pretending to be synchronized forever. The beacon-loss watchdog
// demotes it back to INIT, and once the direction heals the pair
// resynchronizes.
func TestBeaconLossDemotesPort(t *testing.T) {
	sch, n, _, tr := instrumentedPair(t, 21)
	n.Start()
	sch.Run(2 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}

	// Silence h0 -> h1: h1 keeps hearing nothing while its own beacons
	// still reach h0.
	ab, _ := n.LinkWires(0)
	ab.SetLossP(1)
	sch.RunFor(2 * sim.Millisecond)
	if got := countKind(tr, telemetry.KindPortDemoted); got == 0 {
		t.Fatal("no port demoted itself despite total beacon loss")
	}
	a, b := n.LinkPorts(0)
	if a.state == portSynced && b.state == portSynced {
		t.Fatal("both ports still SYNCED while one direction is dead")
	}

	// Heal the direction: the demoted port's INIT retries get through
	// again (backoff caps at 20k<<5 ticks ≈ 4.1 ms between rounds).
	ab.SetLossP(0)
	sch.RunFor(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not resynchronize after the grey failure healed")
	}
}

// TestInitRetryBackoff: with a dead peer, INIT rounds must slow down
// exponentially instead of spinning at the base retry rate.
func TestInitRetryBackoff(t *testing.T) {
	sch, n, _, tr := instrumentedPair(t, 23)
	ab, ba := n.LinkWires(0)
	ab.SetLossP(1)
	ba.SetLossP(1)
	n.Start()
	sch.Run(8 * sim.Millisecond)

	// Base retry is 20k ticks ≈ 128 µs; without backoff 8 ms would fit
	// ~62 rounds per port. With doubling (cap 20k<<5 ≈ 4.1 ms) each
	// port sends its first round plus retries at ~128, 384, 896, 1920,
	// 3970, 8060 µs — about 6 rounds.
	rounds := countKind(tr, telemetry.KindInitRound)
	if rounds > 16 {
		t.Fatalf("%d INIT rounds in 8ms against a dead peer; backoff not bounding the rate", rounds)
	}
	if rounds < 4 {
		t.Fatalf("%d INIT rounds in 8ms; ports gave up instead of retrying", rounds)
	}

	// The peer comes back: the next (possibly far-future) retry round
	// completes, and a received INIT resets the backoff immediately.
	ab.SetLossP(0)
	ba.SetLossP(0)
	sch.RunFor(10 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync after loss cleared")
	}
}

// TestDroppedDownCounting: blocks that arrive on an administratively
// down port are discarded and counted, not processed.
func TestDroppedDownCounting(t *testing.T) {
	sch, n, reg, _ := instrumentedPair(t, 25)
	n.Start()
	sch.Run(2 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("pair did not sync")
	}

	// Down h1's port only; h0 keeps beaconing into it.
	_, b := n.LinkPorts(0)
	b.Down()
	sch.RunFor(2 * sim.Millisecond) // > telemetry flush interval
	if b.DroppedDown() == 0 {
		t.Fatal("no blocks counted as dropped on the down port")
	}
	m := reg.Counter("dtp_port_dropped_down",
		"Blocks that arrived on a down port and were discarded.")
	if m.Value() == 0 {
		t.Fatal("dtp_port_dropped_down metric not flushed")
	}
	// The shadow counter flushes every millisecond, so the metric may
	// trail the port's own count by the final partial interval.
	if m.Value() > b.DroppedDown() {
		t.Fatalf("metric %d exceeds port count %d", m.Value(), b.DroppedDown())
	}
}

// TestCrashRestartRejoins: a device crash loses all counter and port
// state on the device and drops carrier on every attached cable; after
// restart the device re-enters through INIT and BEACON-JOIN pulls it
// back to the network maximum.
func TestCrashRestartRejoins(t *testing.T) {
	sch := sim.NewScheduler()
	reg := telemetry.New()
	tr := telemetry.NewTracer(1 << 14)
	n, err := NewNetwork(sch, 27, topo.Chain(2), DefaultConfig(), WithTelemetry(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("chain did not sync")
	}
	sw, err := n.DeviceByName("sw1")
	if err != nil {
		t.Fatal(err)
	}
	before := sw.GlobalCounter()

	sw.Crash()
	if n.AllSynced() {
		t.Fatal("links still synced across a crashed device")
	}
	sch.RunFor(500 * sim.Microsecond)
	sw.Restart()
	if c := sw.GlobalCounter(); c >= before {
		t.Fatalf("restart kept counter state: %d (was %d at crash)", c, before)
	}
	sch.RunFor(5 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("crashed device did not rejoin")
	}
	// JOIN must have pulled the restarted device up to the network max,
	// never the network down to it.
	off := n.TrueOffsetUnits(0, 1)
	if off < 0 {
		off = -off
	}
	if off > n.BoundUnits() {
		t.Fatalf("restarted device still %d units off (bound %d)", off, n.BoundUnits())
	}
	if countKind(tr, telemetry.KindDeviceCrash) != 1 || countKind(tr, telemetry.KindDeviceRestart) != 1 {
		t.Fatal("crash/restart trace events missing")
	}
	if reg.Counter("dtp_device_crashes_total", "Device power-loss events injected.").Value() != 1 {
		t.Fatal("crash metric not counted")
	}
}

// countKind counts the retained trace events of kind k.
func countKind(tr *telemetry.Tracer, k telemetry.Kind) int {
	n := 0
	for _, e := range tr.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}
